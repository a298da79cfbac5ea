(* bgl-sim: run one fault-aware scheduling simulation and print its
   metrics report.

   The workload is either a synthetic log drawn from a built-in profile
   (--profile nasa|sdsc|llnl) or a real SWF file (--swf). Failures are
   either synthetic (--failures, on the paper's count scale) or a
   failure-log file (--failure-log). *)

open Cmdliner

let profile_conv =
  let parse s =
    match Bgl_workload.Profile.by_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown profile %S (nasa, sdsc, llnl)" s))
  in
  Arg.conv (parse, fun ppf (p : Bgl_workload.Profile.t) -> Format.pp_print_string ppf p.name)

let algo_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Bgl_core.Scenario.algo_of_string s) in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Bgl_core.Scenario.algo_label a))

let profile =
  Arg.(value & opt profile_conv Bgl_workload.Profile.sdsc & info [ "profile" ] ~docv:"NAME"
         ~doc:"Synthetic workload profile: nasa, sdsc or llnl.")

let swf =
  Arg.(value & opt (some file) None & info [ "swf" ] ~docv:"FILE"
         ~doc:"Replay a real SWF job log instead of a synthetic one.")

let failure_log =
  Arg.(value & opt (some file) None & info [ "failure-log" ] ~docv:"FILE"
         ~doc:"Replay a failure-log file instead of a synthetic trace.")

let n_jobs =
  Arg.(value & opt int 2000 & info [ "jobs"; "n" ] ~docv:"N" ~doc:"Number of synthetic jobs.")

let load = Arg.(value & opt float 1.0 & info [ "load"; "c" ] ~docv:"C" ~doc:"Load-scale coefficient.")

let failures =
  Arg.(value & opt (some int) None & info [ "failures"; "f" ] ~docv:"N"
         ~doc:"Failure count on the paper's scale (default: the profile's).")

let algo =
  Arg.(value & opt algo_conv Bgl_core.Scenario.Fault_oblivious & info [ "algo"; "a" ] ~docv:"ALGO"
         ~doc:"Scheduling algorithm: first-fit, mfp, balancing:<a>, tie-breaking:<a>.")

let seed = Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

let no_backfill = Arg.(value & flag & info [ "no-backfill" ] ~doc:"Disable EASY backfilling.")
let migration = Arg.(value & flag & info [ "migration" ] ~doc:"Enable job migration.")

let repair =
  Arg.(value & opt float 0. & info [ "repair" ] ~docv:"SECONDS"
         ~doc:"Node downtime after a failure (paper: 0).")

let checkpoint =
  Arg.(value & opt (some float) None & info [ "checkpoint" ] ~docv:"SECONDS"
         ~doc:"Enable periodic checkpointing with this interval (60 s overhead).")

let per_job = Arg.(value & flag & info [ "per-job" ] ~doc:"Also print one line per job.")

let timeline =
  Arg.(value & flag & info [ "timeline" ] ~doc:"Print an ASCII machine-utilisation strip.")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write a metrics snapshot after the run: Prometheus text format, or CSV if FILE \
               ends in .csv.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Stream every lifecycle event to FILE as JSONL, one line per event (constant \
               memory, any run length).")

let progress =
  Arg.(value & opt (some int) None & info [ "progress" ] ~docv:"N"
         ~doc:"Print a heartbeat line to stderr every N simulation events.")

let audit =
  Arg.(value & flag & info [ "audit" ]
         ~doc:"After the run, re-read the --trace-out file and machine-check the schedule \
               (bgl-audit's checkers); report violations to stderr and exit 1 on any.")

let quiet = Bgl_core.Cli_flags.quiet

let fail =
  Arg.(value & opt_all string [] & info [ "fail" ] ~docv:"SPEC"
         ~doc:"Arm a deterministic failpoint (e.g. trace.swf.read, \
               trace.failure_log.read:once). Repeatable; mainly for testing the error paths.")

let dims = Bgl_core.Cli_flags.dims

let differential =
  Arg.(value & opt ~vopt:(Some 1) (some int) None & info [ "differential-check" ] ~docv:"N"
         ~doc:"Cross-check accelerated partition-finder queries against the reference finder \
               during the run; abort with a divergence report on any disagreement. Bare flag \
               checks every query (orders of magnitude slower — debug/CI at small sizes); \
               with a value, only every Nth query is checked, the affordable mode at full \
               machine scale.")

let run profile swf failure_log n_jobs load failures algo seed dims no_backfill migration repair
    checkpoint per_job timeline metrics_out trace_out progress quiet fail differential audit =
  Bgl_resilience.Error.run ~prog:"bgl-sim" @@ fun () ->
  Bgl_core.Cli_flags.set_quiet quiet;
  let ( let* ) = Result.bind in
  let* () = Bgl_core.Cli_flags.arm_failpoints fail in
  let* () =
    if audit && trace_out = None then
      Bgl_resilience.Error.usagef "--audit needs --trace-out (it re-reads the trace file)"
    else Ok ()
  in
  let* () =
    match differential with
    | None -> Ok (Bgl_partition.Finder.set_differential false)
    | Some n when n >= 1 -> Ok (Bgl_partition.Finder.set_differential ~sample:n true)
    | Some n -> Bgl_resilience.Error.usagef "--differential-check %d: sample must be >= 1" n
  in
  let obs = Bgl_core.Obs_cli.setup ?metrics_out ?trace_out ?progress () in
  let recorder = if timeline then Some (Bgl_sim.Recorder.create ()) else None in
  let config =
    {
      Bgl_sim.Config.default with
      dims = Bgl_core.Cli_flags.parse_dims ~default:Bgl_sim.Config.default.dims dims;
      backfill = not no_backfill;
      migration;
      migration_overhead = (if migration then 60. else 0.);
      repair_time = repair;
      checkpoint =
        Option.map (fun interval -> Bgl_sim.Checkpoint.Periodic { interval; overhead = 60. })
          checkpoint;
    }
  in
  let scenario =
    Bgl_core.Scenario.make ~n_jobs ~load ?failures_paper:failures ~seed ~config ~profile algo
  in
  let outcome =
    match (swf, failure_log) with
    | None, None when recorder = None -> Ok (Bgl_core.Scenario.run scenario)
    | _ -> (
        (* File-driven run: bypass the synthetic generators. *)
        let log_result =
          match swf with
          | None ->
              Ok
                (Bgl_trace.Job_log.scale_runtime ~c:load
                   (Bgl_workload.Synthetic.generate
                      { profile; n_jobs; max_nodes = Bgl_torus.Dims.volume config.dims; seed }))
          | Some path -> (
              match Bgl_trace.Swf.load path with
              | Ok (log, report) ->
                  if report.skipped > 0 || report.malformed <> [] then
                    Bgl_core.Cli_flags.notef "note: %d jobs skipped, %d malformed lines@."
                      report.skipped
                      (List.length report.malformed);
                  Ok (Bgl_trace.Job_log.scale_runtime ~c:load log)
              | Error msg -> Error (Bgl_resilience.Error.Parse { name = path; detail = msg }))
        in
        match log_result with
        | Error e -> Error e
        | Ok log -> (
            let failures_result =
              match failure_log with
              | Some path ->
                  Result.map_error
                    (fun msg -> Bgl_resilience.Error.Parse { name = path; detail = msg })
                    (Bgl_trace.Failure_log.load path)
              | None ->
                  let n_events = Bgl_core.Scenario.injected_failures scenario in
                  if n_events = 0 then Ok (Bgl_trace.Failure_log.make ~name:"no-failures" [])
                  else
                    Ok
                      (Bgl_failure.Generator.generate
                         (Bgl_failure.Generator.default
                            ~span:(Bgl_trace.Job_log.span log *. 1.5)
                            ~volume:(Bgl_torus.Dims.volume config.dims)
                            ~n_events ~seed:(seed lxor 0x5DEECE)))
            in
            match failures_result with
            | Error e -> Error e
            | Ok failure_trace ->
                let index = Bgl_predict.Failure_index.of_log failure_trace in
                let predictor_seed = seed lxor 0x2545F in
                let policy =
                  match algo with
                  | Bgl_core.Scenario.First_fit -> Bgl_sched.Placement.first_fit
                  | Bgl_core.Scenario.Random_fit -> Bgl_sched.Placement.random ~seed:predictor_seed
                  | Bgl_core.Scenario.Fault_oblivious -> Bgl_sched.Placement.mfp
                  | Bgl_core.Scenario.Safest ->
                      Bgl_sched.Placement.safest
                        ~predictor:(Bgl_predict.Predictor.oracle index) ()
                  | Bgl_core.Scenario.Balancing { confidence } ->
                      Bgl_sched.Placement.balancing
                        ~predictor:(Bgl_predict.Predictor.balancing ~confidence index)
                        ()
                  | Bgl_core.Scenario.Balancing_history { half_life; threshold } ->
                      Bgl_sched.Placement.balancing
                        ~predictor:(Bgl_predict.History.ewma ~half_life ~threshold index)
                        ()
                  | Bgl_core.Scenario.Tie_breaking { accuracy } ->
                      Bgl_sched.Placement.tie_breaking
                        ~predictor:
                          (Bgl_predict.Predictor.tie_breaking ~accuracy ~seed:predictor_seed index)
                        ()
                  | Bgl_core.Scenario.Tie_breaking_history { half_life; threshold } ->
                      Bgl_sched.Placement.tie_breaking
                        ~predictor:(Bgl_predict.History.ewma ~half_life ~threshold index)
                        ()
                in
                Ok
                  (Bgl_sim.Engine.run ~config ?recorder ~policy ~log ~failures:failure_trace ~seed
                     ())))
  in
  match outcome with
  | Error e ->
      Bgl_core.Obs_cli.finish obs;
      Result.error e
  | Ok outcome ->
      Bgl_core.Obs_cli.finish ~report:outcome.report obs;
      Format.printf "run: %s@." outcome.name;
      if outcome.dropped_jobs > 0 then
        Format.printf "dropped %d oversize jobs at ingest@." outcome.dropped_jobs;
      Format.printf "%a@." Bgl_sim.Metrics.pp_report outcome.report;
      if not outcome.complete then Format.printf "WARNING: some jobs never completed@.";
      Option.iter
        (fun r ->
          let segments = Bgl_core.Timeline.segments r in
          Format.printf "timeline (|%s|)@."
            (Bgl_core.Timeline.render segments ~volume:(Bgl_torus.Dims.volume config.dims)
               ~width:72))
        recorder;
      if per_job then
        Array.iter
          (fun (j : Bgl_sim.Job.t) ->
            if Bgl_sim.Job.is_completed j then
              Format.printf "job %d size=%d wait=%.0f response=%.0f slowdown=%.2f restarts=%d@."
                j.spec.id j.spec.size (Bgl_sim.Job.wait_time j) (Bgl_sim.Job.response_time j)
                (Bgl_sim.Job.bounded_slowdown j) j.restarts)
          outcome.jobs;
      (* Self-check: the channel is closed and flushed by Obs_cli.finish
         above, so the trace on disk is complete. *)
      match (audit, trace_out) with
      | true, Some path ->
          let* cert = Bgl_audit.Driver.audit_files [ path ] in
          Format.eprintf "%a@?" Bgl_audit.Driver.pp cert;
          Ok (if Bgl_audit.Driver.pass cert then 0 else 1)
      | _ -> Ok 0

(* ------------------------------------------------------------------ *)
(* bench: one full simulation with span timing on, then the profile *)

let bench profile n_jobs load failures algo seed dims no_backfill migration metrics_out =
  Bgl_resilience.Error.run ~prog:"bgl-sim" @@ fun () ->
  let obs = Bgl_core.Obs_cli.setup ?metrics_out () in
  Bgl_obs.Span.set_enabled true;
  let config =
    {
      Bgl_sim.Config.default with
      dims = Bgl_core.Cli_flags.parse_dims ~default:Bgl_sim.Config.default.dims dims;
      backfill = not no_backfill;
      migration;
    }
  in
  let scenario =
    Bgl_core.Scenario.make ~n_jobs ~load ?failures_paper:failures ~seed ~config ~profile algo
  in
  let t0 = Bgl_obs.Clock.now () in
  let outcome = Bgl_core.Scenario.run scenario in
  let wall = Bgl_obs.Clock.now () -. t0 in
  Bgl_obs.Span.set_enabled false;
  Format.printf "run: %s@." outcome.name;
  Format.printf "%a@." Bgl_sim.Metrics.pp_report outcome.report;
  Format.printf "wall time: %.3f s@.@." wall;
  Format.printf "%a@." Bgl_obs.Span.pp_profile ();
  Bgl_core.Obs_cli.finish ~report:outcome.report obs;
  Ok 0

let run_term =
  Term.(
    const run $ profile $ swf $ failure_log $ n_jobs $ load $ failures $ algo $ seed $ dims
    $ no_backfill $ migration $ repair $ checkpoint $ per_job $ timeline $ metrics_out
    $ trace_out $ progress $ quiet $ fail $ differential $ audit)

let bench_cmd =
  let doc = "profile one simulation: run with span timers on, print the timing table" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const bench $ profile $ n_jobs $ load $ failures $ algo $ seed $ dims $ no_backfill
      $ migration $ metrics_out)

let cmd =
  let doc = "run one fault-aware BG/L scheduling simulation" in
  Cmd.group ~default:run_term (Cmd.info "bgl-sim" ~doc) [ bench_cmd ]

let () = exit (Cmd.eval' cmd)
