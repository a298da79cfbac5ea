(* Coarse occupancy summary maintained inline by Grid: per-slab free
   counts along each axis. Feasibility probes use it to reject shapes
   in O(nx + ny + nz) without eroding the finder's free-row masks — on
   a 64x32x32 machine that is a ~128-slab scan instead of a pass over
   every row.

   Every check here is a *necessary* condition for a free box of the
   shape to exist, never a sufficient one: a [false] from
   [shape_feasible] is a proof of absence, a [true] only means the
   exact finders must look. *)

type t = {
  dims : Dims.t;
  free_x : int array;  (* free nodes per x-slab (a yz-plane) *)
  free_y : int array;
  free_z : int array;
}

let create dims =
  let { Dims.nx; ny; nz } = dims in
  {
    dims;
    free_x = Array.make nx (ny * nz);
    free_y = Array.make ny (nx * nz);
    free_z = Array.make nz (nx * ny);
  }

let update t (c : Coord.t) delta =
  t.free_x.(c.x) <- t.free_x.(c.x) + delta;
  t.free_y.(c.y) <- t.free_y.(c.y) + delta;
  t.free_z.(c.z) <- t.free_z.(c.z) + delta

let occupy t c = update t c (-1)
let vacate t c = update t c 1

(* A box of shape sx×sy×sz takes sy·sz nodes from each of the sx
   x-slabs it spans (cyclically from its base), and likewise along y
   and z: O(sx + sy + sz) per box instead of three updates per node. *)
let add_run counts n base extent delta =
  for i = base to base + extent - 1 do
    let j = if i >= n then i - n else i in
    counts.(j) <- counts.(j) + delta
  done

let update_box t (b : Box.t) sign =
  let d = t.dims and s = b.shape in
  add_run t.free_x d.nx b.base.x s.sx (sign * s.sy * s.sz);
  add_run t.free_y d.ny b.base.y s.sy (sign * s.sx * s.sz);
  add_run t.free_z d.nz b.base.z s.sz (sign * s.sx * s.sy)

let occupy_box t b = update_box t b (-1)
let vacate_box t b = update_box t b 1

let slab_free t ~axis i =
  match axis with `X -> t.free_x.(i) | `Y -> t.free_y.(i) | `Z -> t.free_z.(i)

(* Is there a run of [extent] consecutive slabs — cyclically consecutive
   when [wrap] — whose free count each reaches [threshold]? Any free box
   spanning [extent] slabs puts [threshold] free nodes in each of them,
   so a [false] rules the whole axis out. *)
let axis_ok ~wrap counts n extent threshold =
  if extent = n then Array.for_all (fun c -> c >= threshold) counts
  else begin
    let limit = if wrap then (2 * n) - 1 else n in
    let run = ref 0 and ok = ref false in
    let i = ref 0 in
    while (not !ok) && !i < limit do
      if counts.(if !i >= n then !i - n else !i) >= threshold then begin
        incr run;
        if !run >= extent then ok := true
      end
      else run := 0;
      incr i
    done;
    !ok
  end

let shape_feasible t ~wrap (s : Shape.t) =
  let d = t.dims in
  Shape.fits d s
  && axis_ok ~wrap t.free_x d.nx s.sx (s.sy * s.sz)
  && axis_ok ~wrap t.free_y d.ny s.sy (s.sx * s.sz)
  && axis_ok ~wrap t.free_z d.nz s.sz (s.sx * s.sy)
