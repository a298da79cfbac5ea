(* bgl-sim: run one fault-aware scheduling simulation and print its
   metrics report.

   The workload is either a synthetic log drawn from a built-in profile
   (--profile nasa|sdsc|llnl) or a real SWF file (--swf). Failures are
   either synthetic (--failures, on the paper's count scale) or a
   failure-log file (--failure-log). Every mode runs through
   [Scenario.run], which draws whatever the files do not supply from
   --seed. *)

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
  Arg.(value & opt Bgl_core.Cli_flags.n_jobs_conv 2000 & info [ "jobs"; "n" ] ~docv:"N"
         ~doc:"Number of synthetic jobs.")

let load =
  Arg.(value & opt Bgl_core.Cli_flags.load_conv 1.0 & info [ "load"; "c" ] ~docv:"C"
         ~doc:"Load-scale coefficient (positive and finite).")

let failures =
  Arg.(value & opt (some Bgl_core.Cli_flags.failures_conv) None & info [ "failures"; "f" ] ~docv:"N"
         ~doc:"Failure count on the paper's scale, zero or more (default: the profile's).")

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

let audit = Bgl_core.Cli_flags.audit

let quiet = Bgl_core.Cli_flags.quiet

let fail =
  Arg.(value & opt_all string [] & info [ "fail" ] ~docv:"SPEC"
         ~doc:"Arm a deterministic failpoint (e.g. trace.swf.read, \
               trace.failure_log.read:once). Repeatable; mainly for testing the error paths.")

let dims = Bgl_core.Cli_flags.dims

let differential = Bgl_core.Cli_flags.differential

(* The scenario both commands run, built inside the command's
   [Error.run] so a bad --dims exits 2. *)
let scenario =
  let make profile n_jobs load failures algo seed dims no_backfill migration repair checkpoint () =
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
    (try Bgl_sim.Config.validate config
     with Invalid_argument msg -> Bgl_resilience.Error.raise_usagef "%s" msg);
    Bgl_core.Scenario.make ~n_jobs ~load ?failures_paper:failures ~seed ~config ~profile algo
  in
  Term.(
    const make $ profile $ n_jobs $ load $ failures $ algo $ seed $ dims $ no_backfill $ migration
    $ repair $ checkpoint)

let load_swf path =
  match Bgl_trace.Swf.load path with
  | Ok (log, report) ->
      if report.skipped > 0 || report.malformed <> [] then
        Bgl_core.Cli_flags.notef "note: %d jobs skipped, %d malformed lines%s@." report.skipped
          (List.length report.malformed)
          (match report.malformed with
          | line :: _ -> Printf.sprintf " (first at line %d)" line
          | [] -> "");
      Ok log
  | Error detail -> Error (Bgl_resilience.Error.Parse { name = path; detail })

let load_failure_log path =
  Result.map_error
    (fun detail -> Bgl_resilience.Error.Parse { name = path; detail })
    (Bgl_trace.Failure_log.load path)

let load_opt load = function
  | None -> Ok None
  | Some path -> Result.map Option.some (load path)

let run scenario swf failure_log per_job timeline metrics_out trace_out progress quiet fail
    differential audit =
  Bgl_resilience.Error.run ~prog:"bgl-sim" @@ fun () ->
  Bgl_core.Cli_flags.set_quiet quiet;
  let ( let* ) = Result.bind in
  let* () = Bgl_core.Cli_flags.arm_failpoints fail in
  let* () = Bgl_core.Cli_flags.check_audit ~audit ~trace_out in
  let* () = Bgl_core.Cli_flags.set_differential differential in
  let scenario = scenario () in
  let obs = Bgl_core.Obs_cli.setup ?metrics_out ?trace_out ?progress () in
  let recorder = if timeline then Some (Bgl_sim.Recorder.create ()) else None in
  let outcome =
    let* log = load_opt load_swf swf in
    let* failures = load_opt load_failure_log failure_log in
    Ok (Bgl_core.Scenario.run ?recorder ?log ?failures scenario)
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
            (Bgl_core.Timeline.render segments
               ~volume:(Bgl_torus.Dims.volume scenario.config.dims)
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
      Bgl_core.Cli_flags.audit_trace ~audit ~trace_out

(* ------------------------------------------------------------------ *)
(* bench: one full simulation with span timing on, then the profile *)

let bench scenario metrics_out =
  Bgl_resilience.Error.run ~prog:"bgl-sim" @@ fun () ->
  let scenario = scenario () in
  let obs = Bgl_core.Obs_cli.setup ?metrics_out () in
  Bgl_obs.Span.set_enabled true;
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
    const run $ scenario $ swf $ failure_log $ per_job $ timeline $ metrics_out $ trace_out
    $ progress $ quiet $ fail $ differential $ audit)

let bench_cmd =
  let doc = "profile one simulation: run with span timers on, print the timing table" in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const bench $ scenario $ metrics_out)

let cmd =
  let doc = "run one fault-aware BG/L scheduling simulation" in
  Cmd.group ~default:run_term (Cmd.info "bgl-sim" ~doc) [ bench_cmd ]

let () = exit (Cmd.eval' cmd)
