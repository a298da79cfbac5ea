open Bgl_torus

exception Found of Box.t

(* Shape and base order fix which maximal box is returned, so keep
   them: levels by decreasing volume, shapes and bases in catalogue
   order. *)
let search table grid =
  if Grid.free_count grid = 0 then None
  else
    let d = Grid.dims grid in
    let wrap = Grid.wrap grid in
    let free = Grid.free_count grid in
    let first_free_in shapes =
      try
        Array.iter
          (fun shape ->
            if Finder.shape_possible grid shape then
              Finder.iter_bases d ~wrap shape ~f:(fun x y z ->
                  let box = Box.make (Coord.make x y z) shape in
                  if Prefix.box_is_free table box then raise (Found box)))
          shapes;
        None
      with Found b -> Some b
    in
    (* Levels are sorted by decreasing volume; no box larger than the
       free-node count can be free, so those levels are skipped, and
       the first level with any free box yields the MFP. *)
    let rec scan_levels = function
      | [] -> None
      | (volume, shapes) :: rest ->
          if volume > free then scan_levels rest
          else (match first_free_in shapes with Some b -> Some b | None -> scan_levels rest)
    in
    scan_levels (Shapes.levels_desc d)

(* A cache only applies to the very grid it is bound to: callers probe
   ghost copies too, and those get a fresh cache of their own. *)
let cache_for cache grid =
  match cache with
  | Some c when Finder.Cache.grid c == grid -> c
  | _ -> Finder.Cache.create grid

let box ?cache grid =
  let c = cache_for cache grid in
  Finder.Cache.mfp_cached c ~compute:(fun () -> search (Finder.Cache.table c) grid)

let volume ?cache grid = match box ?cache grid with None -> 0 | Some b -> Box.volume b

(* A distinct owner id out of the job-id space; Grid forbids negative
   owners other than its own sentinels, so use a huge positive id. *)
let probe_owner = max_int

let volume_after ?cache grid candidate =
  let c = cache_for cache grid in
  Grid.occupy grid candidate ~owner:probe_owner;
  Finder.Cache.note_box c candidate;
  Fun.protect
    ~finally:(fun () ->
      Grid.vacate grid candidate ~owner:probe_owner;
      Finder.Cache.note_box c candidate)
    (fun () ->
      (* Probe states are transient (the vacate in [finally] restores
         the fingerprint), so bypass the MFP memo slot — it must keep
         the stable pre-probe result — but do reuse the incremental
         table: the probe box is noted going in and coming out, so both
         syncs are dirty-block updates. *)
      match search (Finder.Cache.table c) grid with None -> 0 | Some b -> Box.volume b)
