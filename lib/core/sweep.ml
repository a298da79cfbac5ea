open Bgl_resilience

type journal_mode = No_journal | Fresh of string | Resume of string

type cell_failure = { label : string; fingerprint : string; error : Supervise.error }

type outcome = {
  figures : Series.figure list;
  simulated : int;
  replayed : int;
  journal_dropped : int;
  quarantined : cell_failure list;
  degradation : Supervise.degradation;
}

let fingerprint s = Digest.to_hex (Digest.string (Scenario.label s))

(* The all-zero report the collect pass answers with, and the one a
   quarantined cell's points read, so a degraded sweep still renders. *)
let placeholder : Bgl_sim.Metrics.report =
  {
    total_jobs = 0;
    completed_jobs = 0;
    avg_wait = 0.;
    avg_response = 0.;
    avg_bounded_slowdown = 0.;
    median_bounded_slowdown = 0.;
    p90_bounded_slowdown = 0.;
    util = 0.;
    unused = 0.;
    lost = 0.;
    busy_fraction = 0.;
    makespan = 0.;
    failures_injected = 0;
    job_kills = 0;
    restarts = 0;
    lost_work = 0.;
    migrations = 0;
    checkpoints = 0;
  }

(* The collect pass: run the producer with every lookup answering the
   placeholder, and keep the distinct cells it asks for, by label, in
   first-asked order. *)
let collect (f : Figures.producer) scale =
  let seen = Hashtbl.create 256 and cells = ref [] in
  let ask s =
    let key = Scenario.label s in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      cells := s :: !cells
    end;
    placeholder
  in
  ignore (f ask scale);
  Array.of_list (List.rev !cells)

(* Restore journaled reports for the cells this sweep will ask for into
   [table]. Later records win (a resumed run may re-journal a cell);
   records whose report fails to decode count as dropped and the cell
   is simply simulated again. *)
let restore table entries cells =
  let by_key = Hashtbl.create (List.length entries) in
  List.iter (fun (e : Journal.entry) -> Hashtbl.replace by_key e.key e.value) entries;
  let bad = ref 0 in
  let remaining =
    Array.to_list cells
    |> List.filter (fun cell ->
           match Hashtbl.find_opt by_key (fingerprint cell) with
           | None -> true
           | Some value -> (
               match
                 Option.to_result ~none:"no report member"
                   (Bgl_obs.Jsonl.member "report" value)
                 |> Fun.flip Result.bind Bgl_sim.Metrics.report_of_json
               with
               | Ok report ->
                   Hashtbl.replace table (Scenario.label cell) report;
                   false
               | Error _ ->
                   incr bad;
                   true))
    |> Array.of_list
  in
  (remaining, !bad)

let run ?(policy = Supervise.default) ?(journal = No_journal) ?on_cell ~pool f scale =
  (* Resumed runs advertise the journal they continue in every trace
     header, so an auditor can tie the stitched halves together. *)
  (match journal with
  | Resume path -> Bgl_obs.Runtime.set_trace_parent (Some (Digest.to_hex (Digest.string path)))
  | No_journal | Fresh _ -> ());
  let cells = collect f scale in
  (* This sweep's reports, keyed by scenario label: restored from the
     journal, simulated, or the placeholder for a quarantined cell. *)
  let table = Hashtbl.create (Array.length cells) in
  let restored =
    match journal with
    | No_journal | Fresh _ -> Ok (cells, 0)
    | Resume path -> (
        match Journal.load ~path with
        | Ok (entries, dropped) ->
            let remaining, bad = restore table entries cells in
            Ok (remaining, dropped + bad)
        | Error detail -> Error (Error.Io { path; detail }))
  in
  match restored with
  | Error e -> Error e
  | Ok (remaining, journal_dropped) -> (
      let writer =
        match journal with
        | No_journal -> Ok None
        | Fresh path -> (
            try Ok (Some (Journal.create ~path))
            with e -> Error (Error.Io { path; detail = Printexc.to_string e }))
        | Resume path -> (
            try Ok (Some (Journal.append_to ~path))
            with e -> Error (Error.Io { path; detail = Printexc.to_string e }))
      in
      match writer with
      | Error e -> Error e
      | Ok writer -> (
          let finish () = Option.iter Journal.close writer in
          (* Journal each cell the moment it completes, from whichever
             domain ran it (appends serialised by a mutex), so a kill
             mid-sweep loses only the cells in flight. Records land in
             completion order; the reader keys by fingerprint, so order
             never matters. A journal failure is captured (first one
             wins), not raised across domains — the sweep still
             completes, then reports the I/O error. *)
          let journal_mutex = Mutex.create () in
          let journal_error = ref None in
          let on_complete i (report : Bgl_sim.Metrics.report) =
            (match writer with
            | None -> ()
            | Some w ->
                Mutex.lock journal_mutex;
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock journal_mutex)
                  (fun () ->
                    if !journal_error = None then
                      try
                        Journal.append w ~key:(fingerprint remaining.(i))
                          ~fields:
                            [
                              ("label", Bgl_obs.Jsonl.string (Scenario.label remaining.(i)));
                              ("report", Bgl_sim.Metrics.report_to_json report);
                            ]
                      with e -> journal_error := Some (Error.of_exn e)));
            (* Progress streaming (the service's per-cell frames) runs
               after the cell is durably journaled, from whichever
               domain completed it — same contract as [on_complete]. *)
            match on_cell with None -> () | Some g -> g remaining.(i) report
          in
          match
            Bgl_parallel.Pool.map_supervised pool ~policy ~on_complete
              (fun s -> (Scenario.run s).report)
              remaining
          with
          | exception e ->
              finish ();
              Error (Error.of_exn e)
          | outcomes, degradation -> (
              finish ();
              match !journal_error with
              | Some e -> Error e
              | None ->
                  let quarantined = ref [] in
                  Array.iteri
                    (fun i outcome ->
                      let cell = remaining.(i) in
                      match outcome with
                      | Supervise.Completed { value = report; _ } ->
                          Hashtbl.replace table (Scenario.label cell) report
                      | Supervise.Quarantined error ->
                          Hashtbl.replace table (Scenario.label cell) placeholder;
                          quarantined :=
                            { label = Scenario.label cell; fingerprint = fingerprint cell; error }
                            :: !quarantined)
                    outcomes;
                  let lookup s =
                    let key = Scenario.label s in
                    match Hashtbl.find_opt table key with
                    | Some report -> report
                    | None -> invalid_arg ("Sweep.run: cell not collected: " ^ key)
                  in
                  let figures = f lookup scale in
                  Ok
                    {
                      figures;
                      simulated = degradation.Supervise.completed;
                      replayed = Array.length cells - Array.length remaining;
                      journal_dropped;
                      quarantined = List.rev !quarantined;
                      degradation;
                    })))

let degraded_error outcome =
  match outcome.quarantined with
  | [] -> None
  | cells ->
      Some
        (Error.Degraded
           {
             quarantined =
               List.map
                 (fun c ->
                   Printf.sprintf "%s (%s): %s after %d attempt%s" c.label
                     (String.sub c.fingerprint 0 8) c.error.Supervise.message
                     c.error.Supervise.attempts
                     (if c.error.Supervise.attempts = 1 then "" else "s"))
                 cells;
             detail =
               Printf.sprintf
                 "%d of %d cells quarantined; their figure points are placeholders"
                 (List.length cells)
                 (List.length cells + outcome.simulated + outcome.replayed);
           })
