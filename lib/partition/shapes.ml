open Bgl_torus

let divisors n =
  if n <= 0 then invalid_arg "Shapes.divisors: argument must be positive";
  let rec loop d acc =
    if d * d > n then List.sort Int.compare acc
    else if n mod d = 0 then
      let acc = d :: (if d <> n / d then (n / d) :: acc else acc) in
      loop (d + 1) acc
    else loop (d + 1) acc
  in
  loop 1 []

let shapes_of_volume (d : Dims.t) v =
  if v <= 0 then invalid_arg "Shapes.shapes_of_volume: volume must be positive";
  let acc = ref [] in
  List.iter
    (fun sx ->
      if sx <= d.nx then
        List.iter
          (fun sy ->
            if sy <= d.ny then
              let sz = v / (sx * sy) in
              if sz <= d.nz then acc := Shape.make sx sy sz :: !acc)
          (divisors (v / sx)))
    (divisors v);
  List.sort Shape.compare !acc

(* Catalogue of every fitting shape, computed once per dimension:
   the realisable volumes ascending, and the shapes grouped by volume,
   volumes descending, each group in [Shape.compare] order. *)
type catalogue = { volumes : int list; levels : (int * Shape.t array) list }

(* An immutable assoc list behind an Atomic rather than a Hashtbl:
   every domain of a parallel sweep hits this cache on its placement
   path, and unsynchronized Hashtbl mutation is a data race. The list
   stays tiny (one entry per distinct torus dimension), reads are
   lock-free, and a publication race at worst computes a catalogue
   twice — the value is deterministic in the key, so either copy is
   correct. *)
let catalogues : ((int * int * int) * catalogue) list Atomic.t = Atomic.make []

let rec publish key c =
  let seen = Atomic.get catalogues in
  if List.mem_assoc key seen then ()
  else if not (Atomic.compare_and_set catalogues seen ((key, c) :: seen)) then publish key c

(* A counting sort on volume: one pass counts the shapes of each
   volume, a second fills one array per volume. Both passes visit
   (sx, sy, sz) lexicographically, which is [Shape.compare] order, so
   every array comes out sorted without a comparison. *)
let build (d : Dims.t) =
  let top = d.nx * d.ny * d.nz in
  let count = Array.make (top + 1) 0 in
  for sx = 1 to d.nx do
    for sy = 1 to d.ny do
      for sz = 1 to d.nz do
        let v = sx * sy * sz in
        count.(v) <- count.(v) + 1
      done
    done
  done;
  let unit = Shape.make 1 1 1 in
  let level = Array.map (fun n -> Array.make n unit) count in
  let filled = Array.make (top + 1) 0 in
  for sx = 1 to d.nx do
    for sy = 1 to d.ny do
      for sz = 1 to d.nz do
        let v = sx * sy * sz in
        level.(v).(filled.(v)) <- Shape.make sx sy sz;
        filled.(v) <- filled.(v) + 1
      done
    done
  done;
  let levels = ref [] in
  for v = 1 to top do
    if count.(v) > 0 then levels := (v, level.(v)) :: !levels
  done;
  { volumes = List.rev_map fst !levels; levels = !levels }

let catalogue (d : Dims.t) =
  let key = (d.nx, d.ny, d.nz) in
  match List.assoc_opt key (Atomic.get catalogues) with
  | Some c -> c
  | None ->
      let c = build d in
      publish key c;
      c

let feasible_volumes d = (catalogue d).volumes

let round_up_volume d s =
  if s <= 0 then invalid_arg "Shapes.round_up_volume: size must be positive";
  List.find_opt (fun v -> v >= s) (feasible_volumes d)

let levels_desc d = (catalogue d).levels

let shapes_desc d = List.concat_map (fun (_, shapes) -> Array.to_list shapes) (levels_desc d)

(* Rotations guarded by the machine: [Shape.rotations] enumerates all
   axis permutations, which is only safe verbatim on a cubic torus —
   on the real 64x32x32 machine a 1x1x64 job cannot stand up along y
   or z. Candidate enumeration must go through this filter (or
   [shapes_of_volume], which guards the same way). *)
let orientations (d : Dims.t) s = List.filter (Shape.fits d) (Shape.rotations s)
