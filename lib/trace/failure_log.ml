type event = { time : float; node : int }
type t = { name : string; events : event array }

let make ~name events =
  let arr = Array.of_list events in
  Array.iter
    (fun e ->
      if not (Float.is_finite e.time && e.time >= 0.) then
        invalid_arg "Failure_log: event time must be finite and non-negative";
      if e.node < 0 then invalid_arg "Failure_log: negative node id")
    arr;
  Array.sort (fun a b -> match compare a.time b.time with 0 -> Int.compare a.node b.node | c -> c) arr;
  { name; events = arr }

let length t = Array.length t.events
let span t = if length t = 0 then 0. else t.events.(length t - 1).time -. t.events.(0).time

let nodes t =
  Array.fold_left (fun acc e -> e.node :: acc) [] t.events |> List.sort_uniq Int.compare

let truncate t ~keep =
  if keep < 0 then invalid_arg "Failure_log.truncate: negative keep";
  let keep = min keep (length t) in
  { name = Printf.sprintf "%s[:%d]" t.name keep; events = Array.sub t.events 0 keep }

let scale_count t ~target ~seed =
  if target < 0 then invalid_arg "Failure_log.scale_count: negative target";
  if target >= length t then t
  else begin
    let rng = Bgl_stats.Rng.create ~seed in
    let idx = Array.init (length t) Fun.id in
    Bgl_stats.Rng.shuffle rng idx;
    let chosen = Array.sub idx 0 target in
    Array.sort Int.compare chosen;
    {
      name = Printf.sprintf "%s[%d]" t.name target;
      events = Array.map (fun i -> t.events.(i)) chosen;
    }
  end

let shift t ~offset =
  make ~name:t.name (Array.to_list (Array.map (fun e -> { e with time = e.time +. offset }) t.events))

let validate_nodes t ~volume =
  match Array.find_opt (fun e -> e.node >= volume) t.events with
  | None -> Ok ()
  | Some e -> Error (Printf.sprintf "failure log %s: node %d outside torus of %d nodes" t.name e.node volume)

let merge ~name logs =
  make ~name (List.concat_map (fun t -> Array.to_list t.events) logs)

let of_string ~name text =
  let events = ref [] and bad = ref None in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match Fields.split line with
        | [ time; node ] -> (
            match (float_of_string_opt time, int_of_string_opt node) with
            | Some time, Some node when Float.is_finite time && time >= 0. && node >= 0 ->
                events := { time; node } :: !events
            | _ -> if !bad = None then bad := Some (lineno + 1))
        | _ -> if !bad = None then bad := Some (lineno + 1))
    (String.split_on_char '\n' text);
  match !bad with
  | Some lineno -> Error (Printf.sprintf "%s: malformed failure event at line %d" name lineno)
  | None -> Ok (make ~name (List.rev !events))

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# failure log %s (%d events)\n" t.name (length t));
  (* %.17g round-trips every finite float exactly; %.3f silently merged
     events closer than a millisecond on save/load. *)
  Array.iter (fun e -> Buffer.add_string buf (Printf.sprintf "%.17g %d\n" e.time e.node)) t.events;
  Buffer.contents buf

let load path =
  Bgl_resilience.Failpoint.hit "trace.failure_log.read";
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string ~name:(Filename.basename path) text
  | exception Sys_error msg -> Error msg

let save t path =
  Bgl_resilience.Failpoint.hit "trace.failure_log.write";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string t))

let pp_stats ppf t =
  Format.fprintf ppf "failure log %s: %d events over %.0f s on %d distinct nodes" t.name (length t)
    (span t) (List.length (nodes t))
