(* The table is a cumulative count over an extended array: every
   dimension with wraparound is doubled so a wrapped box becomes an
   ordinary box in the extended space (its base is in the original
   bounds and extents are at most the dimension, so base + extent fits
   in twice the dimension). *)

type t = {
  ex : int;
  ey : int;
  ez : int;
  (* cum.(i + (ex+1) * (j + (ey+1) * k)) = #occupied in [0,i) x [0,j) x [0,k) of
     the extended space. *)
  cum : int array;
}

let build grid =
  let d = Grid.dims grid in
  let wrap = Grid.wrap grid in
  let ex = if wrap then 2 * d.nx else d.nx in
  let ey = if wrap then 2 * d.ny else d.ny in
  let ez = if wrap then 2 * d.nz else d.nz in
  let stride_y = ex + 1 in
  let stride_z = stride_y * (ey + 1) in
  let cum = Array.make (stride_z * (ez + 1)) 0 in
  let at i j k = cum.(i + (stride_y * j) + (stride_z * k)) in
  for k = 1 to ez do
    for j = 1 to ey do
      for i = 1 to ex do
        let x = (i - 1) mod d.nx and y = (j - 1) mod d.ny and z = (k - 1) mod d.nz in
        let node = x + (d.nx * (y + (d.ny * z))) in
        let occ = if Grid.is_free grid node then 0 else 1 in
        cum.(i + (stride_y * j) + (stride_z * k)) <-
          occ
          + at (i - 1) j k + at i (j - 1) k + at i j (k - 1)
          - at (i - 1) (j - 1) k - at (i - 1) j (k - 1) - at i (j - 1) (k - 1)
          + at (i - 1) (j - 1) (k - 1)
      done
    done
  done;
  { ex; ey; ez; cum }

let occupied_in_box t (box : Box.t) =
  let b = box.base and s = box.shape in
  let x1 = b.x + s.sx and y1 = b.y + s.sy and z1 = b.z + s.sz in
  if x1 > t.ex || y1 > t.ey || z1 > t.ez then
    invalid_arg "Prefix.occupied_in_box: box exceeds table (wraparound disabled?)";
  let stride_y = t.ex + 1 in
  let stride_z = stride_y * (t.ey + 1) in
  let at i j k = t.cum.(i + (stride_y * j) + (stride_z * k)) in
  at x1 y1 z1
  - at b.x y1 z1 - at x1 b.y z1 - at x1 y1 b.z
  + at b.x b.y z1 + at b.x y1 b.z + at x1 b.y b.z
  - at b.x b.y b.z

let box_is_free t box = occupied_in_box t box = 0
