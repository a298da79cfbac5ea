(* Coarse occupancy summary maintained inline by Grid: per-slab free
   counts along each axis plus free counts per BxBxB block, with a
   lazily rebuilt cumulative table over the block grid. Feasibility
   probes use it to reject shapes in O(nx + ny + nz + #blocks) without
   eroding the finder's free-row masks — on a 64x32x32 machine that is
   a ~128-slab scan instead of a pass over every row.

   Every check here is a *necessary* condition for a free box of the
   shape to exist, never a sufficient one: a [false] from
   [shape_feasible] is a proof of absence, a [true] only means the
   exact finders must look. *)

type t = {
  dims : Dims.t;
  free_x : int array;  (* free nodes per x-slab (a yz-plane) *)
  free_y : int array;
  free_z : int array;
  block : int;  (* block edge length *)
  bx : int;
  by : int;
  bz : int;  (* block-grid dimensions (ceiling division) *)
  blocks : int array;  (* free nodes per block, bi + bx*(bj + by*bk) *)
  mutable version : int;  (* bumped on every occupy/vacate *)
  (* Cumulative free counts over the (doubled when wrapped) block grid,
     rebuilt on demand when [bcum_version] trails [version]. *)
  bcum : int array;
  mutable bcum_version : int;
  mutable bcum_wrap : bool;  (* the doubling the bcum layout reflects *)
}

let block_edge = 8

let create dims =
  let { Dims.nx; ny; nz } = dims in
  let b = block_edge in
  let bx = (nx + b - 1) / b and by = (ny + b - 1) / b and bz = (nz + b - 1) / b in
  let blocks = Array.make (bx * by * bz) 0 in
  (* Edge blocks are clipped by the torus bounds, so seed each block
     with its actual cell count. *)
  for bk = 0 to bz - 1 do
    for bj = 0 to by - 1 do
      for bi = 0 to bx - 1 do
        let ex = min b (nx - (bi * b)) in
        let ey = min b (ny - (bj * b)) in
        let ez = min b (nz - (bk * b)) in
        blocks.(bi + (bx * (bj + (by * bk)))) <- ex * ey * ez
      done
    done
  done;
  let ebx = (2 * bx) + 1 and eby = (2 * by) + 1 and ebz = (2 * bz) + 1 in
  {
    dims;
    free_x = Array.make nx (ny * nz);
    free_y = Array.make ny (nx * nz);
    free_z = Array.make nz (nx * ny);
    block = b;
    bx;
    by;
    bz;
    blocks;
    version = 0;
    bcum = Array.make (ebx * eby * ebz) 0;
    bcum_version = -1;
    bcum_wrap = true;
  }

let version t = t.version

let block_index t (c : Coord.t) =
  (c.x / t.block) + (t.bx * ((c.y / t.block) + (t.by * (c.z / t.block))))

let update t (c : Coord.t) delta =
  t.free_x.(c.x) <- t.free_x.(c.x) + delta;
  t.free_y.(c.y) <- t.free_y.(c.y) + delta;
  t.free_z.(c.z) <- t.free_z.(c.z) + delta;
  let b = block_index t c in
  t.blocks.(b) <- t.blocks.(b) + delta;
  t.version <- t.version + 1

let occupy t c = update t c (-1)
let vacate t c = update t c 1

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
      if counts.(!i mod n) >= threshold then begin
        incr run;
        if !run >= extent then ok := true
      end
      else run := 0;
      incr i
    done;
    !ok
  end

let rebuild_bcum t ~wrap =
  let ebx = if wrap then 2 * t.bx else t.bx in
  let eby = if wrap then 2 * t.by else t.by in
  let ebz = if wrap then 2 * t.bz else t.bz in
  let sy = ebx + 1 in
  let sz = sy * (eby + 1) in
  let cum = t.bcum in
  Array.fill cum 0 (Array.length cum) 0;
  for k = 1 to ebz do
    let zoff = t.bx * t.by * ((k - 1) mod t.bz) in
    for j = 1 to eby do
      let yoff = zoff + (t.bx * ((j - 1) mod t.by)) in
      for i = 1 to ebx do
        let v = t.blocks.(yoff + ((i - 1) mod t.bx)) in
        cum.(i + (sy * j) + (sz * k)) <-
          v
          + cum.(i - 1 + (sy * j) + (sz * k))
          + cum.(i + (sy * (j - 1)) + (sz * k))
          + cum.(i + (sy * j) + (sz * (k - 1)))
          - cum.(i - 1 + (sy * (j - 1)) + (sz * k))
          - cum.(i - 1 + (sy * j) + (sz * (k - 1)))
          - cum.(i + (sy * (j - 1)) + (sz * (k - 1)))
          + cum.(i - 1 + (sy * (j - 1)) + (sz * (k - 1)))
      done
    done
  done

(* A box of shape s spans at most ceil(s/B)+1 blocks per axis (one for
   each full stripe plus the two clipped ends), so if no block window of
   that many blocks holds [volume s] free nodes anywhere, no placement
   can either. The bound assumes every block is B wide, which fails on
   a wrapped axis whose length is not a multiple of B: a box crossing
   the seam passes through the short edge block and can touch one block
   more. There the window takes the whole axis, which holds every box. *)
let block_window_ok t ~wrap (s : Shape.t) =
  let vol = Shape.volume s in
  let span extent n grid_blocks =
    if wrap && n mod t.block <> 0 then grid_blocks
    else min grid_blocks (((extent + t.block - 1) / t.block) + 1)
  in
  let d = t.dims in
  let wx = span s.sx d.nx t.bx and wy = span s.sy d.ny t.by and wz = span s.sz d.nz t.bz in
  let ebx = if wrap then 2 * t.bx else t.bx in
  let eby = if wrap then 2 * t.by else t.by in
  let sy = ebx + 1 in
  let sz = sy * (eby + 1) in
  let cum = t.bcum in
  let at i j k = cum.(i + (sy * j) + (sz * k)) in
  let window i j k =
    at (i + wx) (j + wy) (k + wz)
    - at i (j + wy) (k + wz) - at (i + wx) j (k + wz) - at (i + wx) (j + wy) k
    + at i j (k + wz) + at i (j + wy) k + at (i + wx) j k
    - at i j k
  in
  let xi = if wrap then t.bx - 1 else t.bx - wx in
  let yj = if wrap then t.by - 1 else t.by - wy in
  let zk = if wrap then t.bz - 1 else t.bz - wz in
  let ok = ref false in
  let k = ref 0 in
  while (not !ok) && !k <= zk do
    let j = ref 0 in
    while (not !ok) && !j <= yj do
      let i = ref 0 in
      while (not !ok) && !i <= xi do
        if window !i !j !k >= vol then ok := true;
        incr i
      done;
      incr j
    done;
    incr k
  done;
  !ok

let shape_feasible t ~wrap (s : Shape.t) =
  let d = t.dims in
  Shape.fits d s
  && axis_ok ~wrap t.free_x d.nx s.sx (s.sy * s.sz)
  && axis_ok ~wrap t.free_y d.ny s.sy (s.sx * s.sz)
  && axis_ok ~wrap t.free_z d.nz s.sz (s.sx * s.sy)
  && begin
       if t.bcum_version <> t.version || t.bcum_wrap <> wrap then begin
         rebuild_bcum t ~wrap;
         t.bcum_version <- t.version;
         t.bcum_wrap <- wrap
       end;
       block_window_ok t ~wrap s
     end
