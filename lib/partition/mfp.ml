open Bgl_torus

(* A cache only applies to the very grid it is bound to; a query on
   any other grid, or with no cache, gets a fresh one of its own. *)
let cache_for cache grid =
  match cache with
  | Some c when Finder.Cache.grid c == grid -> c
  | _ -> Finder.Cache.create grid

(* The bases along one axis of length [n] at which an extent-[s]
   interval meets the candidate's [cb, cb + cs): the cyclic window of
   [s + cs - 1] bases from [cb - s + 1], the whole axis when that
   length reaches [n] ([Box.ring_overlap], computed once per shape). A
   base [b] lies in the window iff its offset from the window start,
   wrapped by one conditional addition into [0, n), is below the
   window length, which a window of [n] or more bases always passes. *)
let window_start n cb s = if cb - s + 1 < 0 then cb - s + 1 + n else cb - s + 1

let in_window n lo len b =
  let o = b - lo in
  (if o < 0 then o + n else o) < len

(* Offset in [packed] of the first box that misses [avoid] — any box
   when there is none — or -1. The boxes are read in place, as packed
   (shape index, x, y, z) quadruples; the windows are recomputed only
   when the shape index changes, and no box is built. *)
let scan_level (d : Dims.t) avoid (shapes : Shape.t array) packed =
  match avoid with
  | None -> if Array.length packed > 0 then 0 else -1
  | Some (c : Box.t) ->
      let cx = c.base.x and cy = c.base.y and cz = c.base.z in
      let csx = c.shape.sx and csy = c.shape.sy and csz = c.shape.sz in
      let n = Array.length packed in
      let k = ref 0 and found = ref (-1) and cur = ref (-1) in
      let lx = ref 0 and wx = ref 0 and ly = ref 0 and wy = ref 0 and lz = ref 0 and wz = ref 0 in
      while !found < 0 && !k < n do
        let i = packed.(!k) in
        if i <> !cur then begin
          cur := i;
          let s = shapes.(i) in
          lx := window_start d.nx cx s.sx;
          wx := s.sx + csx - 1;
          ly := window_start d.ny cy s.sy;
          wy := s.sy + csy - 1;
          lz := window_start d.nz cz s.sz;
          wz := s.sz + csz - 1
        end;
        if
          in_window d.nx !lx !wx packed.(!k + 1)
          && in_window d.ny !ly !wy packed.(!k + 2)
          && in_window d.nz !lz !wz packed.(!k + 3)
        then k := !k + 4
        else found := !k
      done;
      !found

(* The first box in scan order missing [avoid], on the highest level at
   or below [at_most] that holds one. Levels above the free count hold
   no free box, so [at_most] also skips their scans. *)
let first_box c ~at_most ~avoid =
  let d = Grid.dims (Finder.Cache.grid c) in
  let rec levels = function
    | [] -> None
    | { Finder.Cache.volume; shapes; boxes } :: rest ->
        if volume > at_most then levels rest
        else
          let packed = Lazy.force boxes in
          let k = scan_level d avoid shapes packed in
          if k < 0 then levels rest
          else
            Some
              (Box.make (Coord.make packed.(k + 1) packed.(k + 2) packed.(k + 3)) shapes.(packed.(k)))
  in
  levels (Finder.Cache.mfp_levels c)

let mfp c grid = first_box c ~at_most:(Grid.free_count grid) ~avoid:None

let volume_of = Option.fold ~none:0 ~some:Box.volume

(* Each query hands the box it settled on to the differential guard,
   which checks it against [Finder.Reference.mfp]. *)
let box ?cache grid =
  let b = mfp (cache_for cache grid) grid in
  Finder.guard_mfp ~site:"mfp.box" grid b;
  b

let volume ?cache grid = volume_of (box ?cache grid)

(* Once [candidate] is placed, a box is free iff it is free now and
   misses the candidate, and nothing larger than the remaining free
   count can be. Levels above the current MFP hold no free box, so
   bounding by the free count alone finds the same box without first
   walking the levels down to the MFP. *)
let volume_after ?cache grid candidate =
  let c = cache_for cache grid in
  let at_most = Grid.free_count grid - Box.volume candidate in
  let b = first_box c ~at_most ~avoid:(Some candidate) in
  Finder.guard_mfp ~site:"mfp.volume_after" ~avoid:candidate grid b;
  volume_of b
