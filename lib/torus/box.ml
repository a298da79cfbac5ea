type t = { base : Coord.t; shape : Shape.t }

let make base shape = { base; shape }
let volume t = Shape.volume t.shape

let cells (d : Dims.t) t =
  assert (Coord.in_bounds d t.base);
  assert (Shape.fits d t.shape);
  let acc = ref [] in
  for dz = t.shape.sz - 1 downto 0 do
    for dy = t.shape.sy - 1 downto 0 do
      for dx = t.shape.sx - 1 downto 0 do
        let c = Coord.make (t.base.x + dx) (t.base.y + dy) (t.base.z + dz) in
        acc := Coord.wrap d c :: !acc
      done
    done
  done;
  !acc

(* The node ids of [cells], in its order, built without a [Coord]:
   an in-bounds base plus an extent that fits the axis stays below
   twice the axis length, so one conditional subtraction wraps it. *)
let indices (d : Dims.t) t =
  assert (Coord.in_bounds d t.base);
  assert (Shape.fits d t.shape);
  let wrap v n = if v >= n then v - n else v in
  let acc = ref [] in
  for dz = t.shape.sz - 1 downto 0 do
    let z = wrap (t.base.z + dz) d.nz in
    for dy = t.shape.sy - 1 downto 0 do
      let row = d.nx * (wrap (t.base.y + dy) d.ny + (d.ny * z)) in
      for dx = t.shape.sx - 1 downto 0 do
        acc := (row + wrap (t.base.x + dx) d.nx) :: !acc
      done
    done
  done;
  !acc

let canonical (d : Dims.t) ~wrap t =
  if not wrap then t
  else
    let base =
      Coord.make
        (if t.shape.sx = d.nx then 0 else t.base.x)
        (if t.shape.sy = d.ny then 0 else t.base.y)
        (if t.shape.sz = d.nz then 0 else t.base.z)
    in
    { t with base }

let ring_member n b s v =
  let off = ((v - b) mod n + n) mod n in
  off < s

(* Two intervals [b, b+s) on a ring of size n meet iff one holds the
   other's base: walking back from a shared cell stays inside both
   until it reaches one base. A full-extent interval holds every base. *)
let ring_overlap n b1 s1 b2 s2 = ring_member n b1 s1 b2 || ring_member n b2 s2 b1

let overlap (d : Dims.t) a b =
  ring_overlap d.nx a.base.x a.shape.sx b.base.x b.shape.sx
  && ring_overlap d.ny a.base.y a.shape.sy b.base.y b.shape.sy
  && ring_overlap d.nz a.base.z a.shape.sz b.base.z b.shape.sz

let member (d : Dims.t) t (c : Coord.t) =
  ring_member d.nx t.base.x t.shape.sx c.x
  && ring_member d.ny t.base.y t.shape.sy c.y
  && ring_member d.nz t.base.z t.shape.sz c.z

let equal a b = Coord.equal a.base b.base && Shape.equal a.shape b.shape

let compare a b =
  match Coord.compare a.base b.base with 0 -> Shape.compare a.shape b.shape | c -> c

let pp ppf t = Format.fprintf ppf "%a@%a" Shape.pp t.shape Coord.pp t.base
