(* bgl-sweep: regenerate the paper's figures or the ablation studies as
   text tables + CSV files. A cmdliner front-end over Bgl_core.Sweep.

   Sweeps are crash-safe and supervised: --journal records every
   completed cell durably, --resume skips the journaled cells of an
   interrupted sweep, --fail arms deterministic failpoints, and
   --cell-fuel/--cell-deadline bound each cell. Figure tables go to
   stdout; resilience reporting goes to stderr, so a resumed sweep's
   stdout is byte-identical to an uninterrupted one. *)

open Cmdliner

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"ID"
         ~doc:"Figure ids (intro, 3..10), ablation ids (combine, fpos, checkpoint, adaptive, \
               backfill, migration, failure-model, repair, candidates, history, zoo) and/or \
               baseline ids (baseline-slowdown, baseline-util, baseline-failures); $(b,ablate) \
               is every ablation and $(b,baseline) the whole baseline study. Empty = all \
               figures.")

let full = Arg.(value & flag & info [ "full" ] ~doc:"Full scale: 3000 jobs, 3 seeds.")

let n_jobs =
  Arg.(value & opt (some int) None & info [ "n-jobs" ] ~docv:"N" ~doc:"Override jobs per run.")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Simulate sweep cells on N OCaml domains (default 1 = sequential). Output is \
               byte-identical for every N; 0 = one per core.")

let seeds =
  Arg.(value & opt (some (list int)) None & info [ "seeds" ] ~docv:"S1,S2,..."
         ~doc:"Override the seed list.")

let out =
  Arg.(value & opt string "results" & info [ "out"; "o" ] ~docv:"DIR" ~doc:"CSV output directory.")

let chart = Arg.(value & flag & info [ "chart" ] ~doc:"Also print ASCII charts.")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write a metrics snapshot aggregated over every run of the sweep: Prometheus text \
               format, or CSV if FILE ends in .csv.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Stream all runs' lifecycle events to FILE as JSONL; every run is framed by a \
               run_meta header and a run_summary trailer, and every line is tagged with its \
               run id so parallel sweeps demultiplex.")

let audit = Bgl_core.Cli_flags.audit

let progress =
  Arg.(value & opt (some int) None & info [ "progress" ] ~docv:"N"
         ~doc:"Print a heartbeat line to stderr every N simulation events (cumulative across \
               runs).")

let journal =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
         ~doc:"Append every completed sweep cell to FILE as one fsync'd JSONL record \
               (truncates FILE first). A killed sweep loses at most the cells in flight; \
               restart it with --resume FILE.")

let resume =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
         ~doc:"Restore completed cells from journal FILE, simulate only the missing ones, and \
               keep appending to FILE. Output is byte-identical to an uninterrupted run.")

let fail =
  Arg.(value & opt_all string [] & info [ "fail" ] ~docv:"SPEC"
         ~doc:"Arm a deterministic failpoint, e.g. pool.cell:index=3 (that sweep cell always \
               fails), pool.cell:index=3,once (fails once, the retry succeeds), \
               journal.append:once, trace.swf.read, site:p=0.1,seed=7. Repeatable.")

let retries =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Attempts per sweep cell before it is quarantined (>= 1).")

let cell_fuel =
  Arg.(value & opt (some int) None & info [ "cell-fuel" ] ~docv:"N"
         ~doc:"Cooperative budget: at most N engine/finder checks per cell attempt; a cell \
               that runs out is quarantined, not hung.")

let cell_deadline =
  Arg.(value & opt (some float) None & info [ "cell-deadline" ] ~docv:"SECONDS"
         ~doc:"Cooperative budget: wall-clock limit per cell attempt.")

let dims = Bgl_core.Cli_flags.dims

let differential = Bgl_core.Cli_flags.differential

let ( let* ) = Result.bind

let run ids full n_jobs jobs seeds dims out chart metrics_out trace_out progress journal resume
    fail retries cell_fuel cell_deadline differential audit =
  Bgl_resilience.Error.run ~prog:"bgl-sweep" @@ fun () ->
  let open Bgl_resilience in
  let* () = Bgl_core.Cli_flags.set_differential differential in
  let* () = Bgl_core.Cli_flags.check_audit ~audit ~trace_out in
  (* -- validation: every bad flag is a structured Usage error (exit 2) -- *)
  let* domains =
    if jobs < 0 then Error.usagef "--jobs must be >= 0, got %d" jobs
    else Ok (if jobs = 0 then Bgl_parallel.Pool.recommended () else jobs)
  in
  let* () =
    match n_jobs with
    | Some n when n <= 0 -> Error.usagef "--n-jobs must be positive, got %d" n
    | _ -> Ok ()
  in
  let* () =
    match seeds with
    | Some [] -> Error.usagef "--seeds needs at least one seed"
    | _ -> Ok ()
  in
  let* () =
    if retries < 1 then Error.usagef "--retries must be >= 1, got %d" retries else Ok ()
  in
  let* () =
    match cell_fuel with
    | Some n when n <= 0 -> Error.usagef "--cell-fuel must be positive, got %d" n
    | _ -> Ok ()
  in
  let* () =
    match cell_deadline with
    | Some d when d <= 0. -> Error.usagef "--cell-deadline must be positive, got %g" d
    | _ -> Ok ()
  in
  let* journal_mode =
    match (journal, resume) with
    | Some _, Some _ -> Error.usagef "--journal and --resume are mutually exclusive"
    | Some path, None -> Ok (Bgl_core.Sweep.Fresh path)
    | None, Some path ->
        if Sys.file_exists path then Ok (Bgl_core.Sweep.Resume path)
        else Result.error (Error.Io { path; detail = "no such journal" })
    | None, None -> Ok Bgl_core.Sweep.No_journal
  in
  let* () = Bgl_core.Cli_flags.arm_failpoints fail in
  let policy =
    {
      Supervise.default with
      max_attempts = retries;
      budget =
        (match (cell_fuel, cell_deadline) with
        | None, None -> None
        | fuel, deadline -> Some (fun () -> Budget.make ?fuel ?deadline ()));
    }
  in
  let scale = if full then Bgl_core.Figures.full else Bgl_core.Figures.quick in
  let scale =
    { scale with
      Bgl_core.Figures.n_jobs = Option.value n_jobs ~default:scale.Bgl_core.Figures.n_jobs;
      seeds = Option.value seeds ~default:scale.Bgl_core.Figures.seeds;
      dims = Bgl_core.Cli_flags.parse_dims ~default:scale.Bgl_core.Figures.dims dims;
    }
  in
  let* chosen =
    let open Bgl_core in
    let catalogue =
      Figures.catalogue @ Ablations.catalogue @ Baseline.catalogue
      @ [
          ([ "ablate" ], Figures.concat Ablations.catalogue);
          ([ "baseline" ], Figures.concat Baseline.catalogue);
        ]
    in
    List.fold_right
      (fun id rest ->
        match Figures.find catalogue id with
        | Some p -> Result.map (List.cons ([ id ], p)) rest
        | None -> Error.usagef "unknown id %S" id)
      ids (Ok [])
  in
  let producer =
    Bgl_core.Figures.concat (if ids = [] then Bgl_core.Figures.catalogue else chosen)
  in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let obs = Bgl_core.Obs_cli.setup ?metrics_out ?trace_out ?progress () in
  let pool = Bgl_parallel.Pool.create ~domains in
  let result =
    Fun.protect
      ~finally:(fun () -> Bgl_parallel.Pool.shutdown pool)
      (fun () -> Bgl_core.Sweep.run ~policy ~journal:journal_mode ~pool producer scale)
  in
  let* outcome =
    match result with
    | Error e ->
        Bgl_core.Obs_cli.finish obs;
        Result.error e
    | Ok outcome -> Ok outcome
  in
  List.iter
    (fun fig ->
      Format.printf "%a@." Bgl_core.Series.pp_figure fig;
      if chart then Format.printf "%a@." (Bgl_core.Series.pp_chart ?height:None) fig;
      let path = Bgl_core.Series.save_csv fig ~dir:out in
      Format.printf "  (csv: %s)@.@." path)
    outcome.Bgl_core.Sweep.figures;
  Bgl_core.Obs_cli.finish obs;
  (* Resilience summary on stderr, so stdout stays byte-identical
     between clean, journaled and resumed sweeps. *)
  if outcome.replayed > 0 || outcome.journal_dropped > 0 then
    Format.eprintf "bgl-sweep: %d cells simulated, %d replayed from journal%s@."
      outcome.simulated outcome.replayed
      (if outcome.journal_dropped > 0 then
         Printf.sprintf " (%d journal lines dropped)" outcome.journal_dropped
       else "");
  if Supervise.degraded outcome.degradation then
    Format.eprintf "bgl-sweep: %a@." Supervise.pp_degradation outcome.degradation;
  (* Self-check after Obs_cli.finish closed the trace channel; a
     degradation error still takes precedence over the audit verdict. *)
  let* audit_exit = Bgl_core.Cli_flags.audit_trace ~audit ~trace_out in
  match Bgl_core.Sweep.degraded_error outcome with
  | Some e -> Result.error e
  | None -> Ok audit_exit

let cmd =
  let doc = "regenerate the paper's evaluation figures and ablations" in
  Cmd.v (Cmd.info "bgl-sweep" ~doc)
    Term.(
      const run $ ids $ full $ n_jobs $ jobs $ seeds $ dims $ out $ chart $ metrics_out
      $ trace_out $ progress $ journal $ resume $ fail $ retries $ cell_fuel $ cell_deadline
      $ differential $ audit)

let () = exit (Cmd.eval' cmd)
