module Recorder = Bgl_sim.Recorder

type item = { file : string; lineno : int; len : int; entry : Recorder.entry }

type section = {
  run : string option;
  meta : Recorder.meta;
  meta_file : string;
  meta_line : int;
  events : item list;
  summary : (Bgl_sim.Metrics.report * float) option;  (** report, summary time *)
  last_file : string;
  last_line : int;
}

let complete s = Option.is_some s.summary

type t = {
  sections : section list;
  findings : Finding.t list;
  lines_total : int;
  dropped_tail : int;
}

(* ------------------------------------------------------------------ *)
(* Sectioning: demultiplex the (possibly interleaved) line stream by
   run id, and split each run's stream into sections at run_meta
   boundaries. A parallel sweep interleaves whole lines from many
   domains; a stitched kill-then-resume audit concatenates files, so
   one run id may open several sections (a truncated first attempt
   followed by the resumed complete one). Open sections hold their
   events newest first. *)

let close (o : section) = { o with events = List.rev o.events }

let of_lines files =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let open_by_run : (string, section) Hashtbl.t = Hashtbl.create 16 in
  let closed = ref [] in
  let order = ref [] in  (* open-section keys in first-seen order *)
  let key = function None -> "" | Some r -> r in
  let lines_total = ref 0 in
  let dropped_tail = ref 0 in
  let handle_line file lineno raw ~is_last =
    incr lines_total;
    match Recorder.entry_of_json raw with
    | Error msg ->
        (* A truncated final line is the expected signature of a killed
           writer (the journal reader tolerates the same); anything
           else is a real violation. *)
        if is_last then incr dropped_tail
        else
          emit
            (Finding.make A1 ~file ~line:lineno ~end_col:(String.length raw)
               (Printf.sprintf "unparseable trace line: %s" msg))
    | Ok (run, entry) -> (
        let k = key run in
        match (entry, Hashtbl.find_opt open_by_run k) with
        | Run_meta meta, previous ->
            (* A new header for a run that never closed: the previous
               attempt was truncated (crash); keep it for the stitch
               check. *)
            Option.iter (fun o -> closed := close o :: !closed) previous;
            if not (List.mem k !order) then order := !order @ [ k ];
            Hashtbl.replace open_by_run k
              {
                run;
                meta;
                meta_file = file;
                meta_line = lineno;
                events = [];
                summary = None;
                last_file = file;
                last_line = lineno;
              }
        | _, None ->
            emit
              (Finding.make A2 ~file ~line:lineno ~end_col:(String.length raw) ?run
                 (Printf.sprintf "%s line outside any run (no run_meta seen)"
                    (Recorder.name entry)))
        | Run_summary { report; time }, Some o ->
            closed :=
              close { o with summary = Some (report, time); last_file = file; last_line = lineno }
              :: !closed;
            Hashtbl.remove open_by_run k
        | _, Some o ->
            Hashtbl.replace open_by_run k
              {
                o with
                events = { file; lineno; len = String.length raw; entry } :: o.events;
                last_file = file;
                last_line = lineno;
              })
  in
  List.iter
    (fun (file, lines) ->
      let n = List.length lines in
      List.iteri
        (fun i raw -> if String.length raw > 0 then handle_line file (i + 1) raw ~is_last:(i = n - 1))
        lines)
    files;
  (* Runs still open at end of stream are truncated sections. *)
  List.iter
    (fun k -> Option.iter (fun o -> closed := close o :: !closed) (Hashtbl.find_opt open_by_run k))
    !order;
  {
    sections = List.rev !closed;
    findings = List.rev !findings;
    lines_total = !lines_total;
    dropped_tail = !dropped_tail;
  }

let read_lines path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match In_channel.input_line ic with Some l -> go (l :: acc) | None -> List.rev acc
        in
        Ok (go []))
  with Sys_error detail -> Error (Bgl_resilience.Error.Io { path; detail })

let load_files paths =
  let rec go acc = function
    | [] -> Ok (of_lines (List.rev acc))
    | path :: rest -> (
        match read_lines path with
        | Ok lines -> go ((path, lines) :: acc) rest
        | Error e -> Error e)
  in
  go [] paths
