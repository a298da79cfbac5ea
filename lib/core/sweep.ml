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

(* Restore journaled reports for the cells this sweep will ask for.
   Later records win (a resumed run may re-journal a cell); records
   whose report fails to decode count as dropped and the cell is
   simply simulated again. *)
let restore entries cells =
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
                   Figures.install_report cell report;
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
  let cells = Figures.cells_of f scale in
  let restored =
    match journal with
    | No_journal | Fresh _ -> Ok (cells, 0)
    | Resume path -> (
        match Journal.load ~path with
        | Ok (entries, dropped) ->
            let remaining, bad = restore entries cells in
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
                    (fun i -> function
                      | Supervise.Completed { value = report; _ } ->
                          Figures.install_report remaining.(i) report
                      | Supervise.Quarantined error ->
                          Figures.install_report remaining.(i) Figures.placeholder_report;
                          quarantined :=
                            {
                              label = Scenario.label remaining.(i);
                              fingerprint = fingerprint remaining.(i);
                              error;
                            }
                            :: !quarantined)
                    outcomes;
                  let figures = f scale in
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
