open Bgl_torus

(* A cache only applies to the very grid it is bound to; a query on
   any other grid, or with no cache, gets a fresh one of its own. *)
let cache_for cache grid =
  match cache with
  | Some c when Finder.Cache.grid c == grid -> c
  | _ -> Finder.Cache.create grid

(* The first box in scan order satisfying [ok], on the highest level at
   or below [at_most] that holds one. Levels above the free count hold
   no free box, so [at_most] also skips their scans. *)
let first_box c ~at_most ~ok =
  let rec levels = function
    | [] -> None
    | { Finder.Cache.volume; shapes; boxes } :: rest ->
        if volume > at_most then levels rest
        else
          let packed = Lazy.force boxes in
          let rec scan k =
            if k = Array.length packed then levels rest
            else
              let b =
                Box.make (Coord.make packed.(k + 1) packed.(k + 2) packed.(k + 3)) shapes.(packed.(k))
              in
              if ok b then Some b else scan (k + 4)
          in
          scan 0
  in
  levels (Finder.Cache.mfp_levels c)

let mfp c grid = first_box c ~at_most:(Grid.free_count grid) ~ok:(fun _ -> true)
let volume_of = Option.fold ~none:0 ~some:Box.volume

(* Each query hands the box it settled on to the differential guard,
   which checks it against [Finder.Reference.mfp]. *)
let box ?cache grid =
  let b = mfp (cache_for cache grid) grid in
  Finder.guard_mfp ~site:"mfp.box" grid b;
  b

let volume ?cache grid = volume_of (box ?cache grid)

(* Once [candidate] is placed, a box is free iff it is free now and
   misses the candidate, and nothing larger than the current MFP or the
   remaining free count can be. *)
let volume_after ?cache grid candidate =
  let c = cache_for cache grid in
  let d = Grid.dims grid in
  let at_most = min (volume_of (mfp c grid)) (Grid.free_count grid - Box.volume candidate) in
  let b = first_box c ~at_most ~ok:(fun b -> not (Box.overlap d b candidate)) in
  Finder.guard_mfp ~site:"mfp.volume_after" ~avoid:candidate grid b;
  volume_of b
