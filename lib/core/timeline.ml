open Bgl_torus

type ending =
  | Finished
  | Killed of int
  | Migrated
  | Truncated

type segment = {
  job : int;
  box : Box.t;
  started : float;
  ended : float;
  ending : ending;
}

let segments recorder =
  let open Bgl_sim.Recorder in
  (* Track the open tenancy of each job; any closing event emits a
     segment. *)
  let open_tenancies : (int, float * Box.t) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref [] in
  let close job time ending =
    match Hashtbl.find_opt open_tenancies job with
    | None -> ()
    | Some (started, box) ->
        Hashtbl.remove open_tenancies job;
        acc := { job; box; started; ended = time; ending } :: !acc
  in
  let last_time = ref 0. in
  List.iter
    (fun entry ->
      last_time := Float.max !last_time (time entry);
      match entry with
      | Job_started s -> Hashtbl.replace open_tenancies s.job (s.time, s.box)
      | Job_killed k -> close k.job k.time (Killed k.node)
      | Job_finished f -> close f.job f.time Finished
      | Job_migrated m ->
          close m.job m.time Migrated;
          Hashtbl.replace open_tenancies m.job (m.time, m.to_box)
      (* Framing, arrival and node entries carry no tenancy. *)
      | Run_meta _ | Job_arrived _ | Node_failed _ | Node_repaired _ | Run_summary _ -> ())
    (entries recorder);
  Hashtbl.iter
    (fun job (started, box) ->
      acc := { job; box; started; ended = !last_time; ending = Truncated } :: !acc)
    open_tenancies;
  List.sort
    (fun a b -> match compare a.started b.started with 0 -> Int.compare a.job b.job | c -> c)
    !acc

let busy_profile segs ~buckets ~span =
  if buckets <= 0 then invalid_arg "Timeline.busy_profile: buckets must be positive";
  if span <= 0. then invalid_arg "Timeline.busy_profile: span must be positive";
  let profile = Array.make buckets 0. in
  let bucket_width = span /. float_of_int buckets in
  List.iter
    (fun seg ->
      let nodes = float_of_int (Box.volume seg.box) in
      let first = max 0 (int_of_float (seg.started /. bucket_width)) in
      let last = min (buckets - 1) (int_of_float (seg.ended /. bucket_width)) in
      for b = first to last do
        let b_lo = float_of_int b *. bucket_width in
        let b_hi = b_lo +. bucket_width in
        let overlap = Float.max 0. (Float.min seg.ended b_hi -. Float.max seg.started b_lo) in
        profile.(b) <- profile.(b) +. (nodes *. overlap)
      done)
    segs;
  profile

let observed_span segs = List.fold_left (fun acc s -> Float.max acc s.ended) 0. segs

let render segs ~volume ~width =
  if volume <= 0 then invalid_arg "Timeline.render: volume must be positive";
  if width <= 0 then invalid_arg "Timeline.render: width must be positive";
  match segs with
  | [] -> ""
  | _ ->
      let span = observed_span segs in
      if span <= 0. then ""
      else begin
        let profile = busy_profile segs ~buckets:width ~span in
        let bucket_capacity = float_of_int volume *. span /. float_of_int width in
        let glyphs = " .:-=+*%#" in
        String.init width (fun i ->
            let frac = Float.min 1. (profile.(i) /. bucket_capacity) in
            let level = int_of_float (frac *. float_of_int (String.length glyphs - 1)) in
            glyphs.[level])
      end

let utilisation_of_segments segs ~volume =
  match segs with
  | [] -> 0.
  | _ ->
      let span = observed_span segs in
      if span <= 0. then 0.
      else
        let busy =
          List.fold_left
            (fun acc s -> acc +. (float_of_int (Box.volume s.box) *. (s.ended -. s.started)))
            0. segs
        in
        busy /. (float_of_int volume *. span)
