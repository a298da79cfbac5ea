type parse_report = {
  parsed : int;
  skipped : int;
  malformed : int list;
}

(* SWF numbers fields from 1; [field fs i] is field i or None. *)
let field fs i = List.nth_opt fs (i - 1)

let float_field fs i =
  match field fs i with
  | None -> None
  | Some s -> ( match float_of_string_opt s with Some v when v >= 0. -> Some v | _ -> None)

(* A time field that parses to NaN or an infinity: no SWF writer emits
   one (unknown values are -1), so the line is malformed rather than a
   job with an unknown field. *)
let non_finite fs i =
  match Option.bind (field fs i) float_of_string_opt with
  | Some v -> not (Float.is_finite v)
  | None -> false

let int_field fs i =
  match field fs i with
  | None -> None
  | Some s -> ( match int_of_string_opt s with Some v when v >= 0 -> Some v | _ -> None)

let parse_job fs =
  if List.exists (non_finite fs) [ 2; 4; 9 ] then `Malformed
  else
    match (int_field fs 1, float_field fs 2, float_field fs 4) with
    | Some id, Some submit, Some run_time when run_time > 0. ->
        let size =
          match int_field fs 5 with
          | Some p when p > 0 -> Some p
          | _ -> ( match int_field fs 8 with Some p when p > 0 -> Some p | _ -> None)
        in
        (match size with
        | None -> `Skip
        | Some size ->
            let estimate =
              match float_field fs 9 with Some e when e > 0. -> max e run_time | _ -> run_time
            in
            `Job { Job_log.id; arrival = submit; size; run_time; estimate })
    | Some _, Some _, _ -> `Skip
    | _ -> `Malformed

let of_string ~name text =
  let lines = String.split_on_char '\n' text in
  let jobs = ref [] and parsed = ref 0 and skipped = ref 0 and malformed = ref [] in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> ';' then
        match parse_job (Fields.split line) with
        | `Job j ->
            incr parsed;
            jobs := j :: !jobs
        | `Skip -> incr skipped
        | `Malformed -> malformed := (lineno + 1) :: !malformed)
    lines;
  if !parsed = 0 then Error (Printf.sprintf "%s: no parsable SWF jobs" name)
  else
    match Job_log.make ~name (List.rev !jobs) with
    | log -> Ok (log, { parsed = !parsed; skipped = !skipped; malformed = List.rev !malformed })
    | exception Invalid_argument msg -> Error msg

let load path =
  Bgl_resilience.Failpoint.hit "trace.swf.read";
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string ~name:(Filename.basename path) text
  | exception Sys_error msg -> Error msg

let to_string (log : Job_log.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "; SWF export of log %s (%d jobs)\n" log.name (Job_log.length log));
  Array.iter
    (fun (j : Job_log.job) ->
      (* 18 fields; the ones we do not track are -1. *)
      Buffer.add_string buf
        (Printf.sprintf "%d %.0f -1 %.0f %d -1 -1 %d %.0f -1 1 -1 -1 -1 -1 -1 -1 -1\n" j.id
           j.arrival j.run_time j.size j.size j.estimate))
    log.jobs;
  Buffer.contents buf

let save log path =
  Bgl_resilience.Failpoint.hit "trace.swf.write";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string log))
