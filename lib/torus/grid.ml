(* Occupancy lives in a bit-packed Bigarray (32 nodes per word, so a
   full 64x32x32 machine is a 16 KB bitset the finder's free-row masks
   are rebuilt from a word at a time), owner ids in a plain side array consulted
   only on the cold paths (vacate validation, rendering, owner
   queries). A Summary is maintained inline so feasibility probes can
   reject shapes without scanning either. *)

type t = {
  dims : Dims.t;
  wrap : bool;
  occ : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  owners : int array;
  summary : Summary.t;
  mutable free : int;
  mutable version : int;
  mutable fingerprint : int;
}

let free_marker = -1
let down_owner = -2

(* Zobrist-style per-node key: occupancy state hashes to the xor of the
   keys of the occupied nodes, so occupy/vacate update the fingerprint
   in O(1) and a probe that occupies then vacates restores it exactly.
   A splitmix-style finalizer keeps the keys well spread; constants are
   chosen to fit OCaml's 63-bit native int. *)
let node_key node =
  let x = (node + 1) * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B03738712FAD5C9 in
  x lxor (x lsr 32)

let create ?(wrap = true) dims =
  let n = Dims.volume dims in
  let occ = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ((n + 31) lsr 5) in
  Bigarray.Array1.fill occ 0;
  {
    dims;
    wrap;
    occ;
    owners = Array.make n free_marker;
    summary = Summary.create dims;
    free = n;
    version = 0;
    fingerprint = 0;
  }

let dims t = t.dims
let wrap t = t.wrap

let volume t = Dims.volume t.dims
let free_count t = t.free
let busy_count t = volume t - t.free
let version t = t.version
let fingerprint t = t.fingerprint
let summary t = t.summary

let is_free t node = Bigarray.Array1.get t.occ (node lsr 5) land (1 lsl (node land 31)) = 0
let owner t node = if is_free t node then None else Some t.owners.(node)

let occupied_bits t ~pos ~len =
  let w = pos lsr 5 and off = pos land 31 in
  let bits = Bigarray.Array1.get t.occ w lsr off in
  let bits =
    if off + len > 32 then bits lor (Bigarray.Array1.get t.occ (w + 1) lsl (32 - off)) else bits
  in
  bits land ((1 lsl len) - 1)

let box_is_free t box = List.for_all (is_free t) (Box.indices t.dims box)

let check_owner owner =
  if owner < 0 && owner <> down_owner then invalid_arg "Grid.occupy_node: invalid owner id"

(* Flip one validated node; the callers bring the Summary up to date,
   a node at a time or a box at a time. *)
let[@inline] set_node t node ~owner =
  let w = node lsr 5 in
  Bigarray.Array1.set t.occ w (Bigarray.Array1.get t.occ w lor (1 lsl (node land 31)));
  t.owners.(node) <- owner;
  t.free <- t.free - 1;
  t.version <- t.version + 1;
  t.fingerprint <- t.fingerprint lxor node_key node

let[@inline] clear_node t node =
  let w = node lsr 5 in
  Bigarray.Array1.set t.occ w (Bigarray.Array1.get t.occ w lxor (1 lsl (node land 31)));
  t.owners.(node) <- free_marker;
  t.free <- t.free + 1;
  t.version <- t.version + 1;
  t.fingerprint <- t.fingerprint lxor node_key node

let occupy_node t node ~owner =
  check_owner owner;
  if not (is_free t node) then
    invalid_arg
      (Printf.sprintf "Grid.occupy_node: node %d already owned by %d" node t.owners.(node));
  set_node t node ~owner;
  Summary.occupy t.summary (Coord.of_index t.dims node)

let vacate_node t node ~owner =
  let current = if is_free t node then free_marker else t.owners.(node) in
  if current <> owner then
    invalid_arg (Printf.sprintf "Grid.vacate_node: node %d owned by %d, not %d" node current owner);
  clear_node t node;
  Summary.vacate t.summary (Coord.of_index t.dims node)

let occupy t box ~owner =
  let idx = Box.indices t.dims box in
  (* Validate first so a failed claim leaves the grid unchanged. *)
  List.iter
    (fun node ->
      if not (is_free t node) then
        invalid_arg (Printf.sprintf "Grid.occupy: node %d already owned" node))
    idx;
  check_owner owner;
  List.iter (fun node -> set_node t node ~owner) idx;
  Summary.occupy_box t.summary box

let vacate t box ~owner =
  let idx = Box.indices t.dims box in
  List.iter
    (fun node ->
      if is_free t node || t.owners.(node) <> owner then
        invalid_arg (Printf.sprintf "Grid.vacate: node %d not owned by %d" node owner))
    idx;
  List.iter (clear_node t) idx;
  Summary.vacate_box t.summary box

let iter_owned t f =
  let n = volume t in
  for w = 0 to Bigarray.Array1.dim t.occ - 1 do
    let word = Bigarray.Array1.get t.occ w in
    if word <> 0 then begin
      let base = w lsl 5 in
      for b = 0 to min 31 (n - 1 - base) do
        if word land (1 lsl b) <> 0 then f (base + b) t.owners.(base + b)
      done
    end
  done

let owners t =
  let tbl = Hashtbl.create 16 in
  iter_owned t (fun _ o -> Hashtbl.replace tbl o ());
  Hashtbl.fold (fun o () acc -> o :: acc) tbl [] |> List.sort Int.compare

let pp ppf t =
  let d = t.dims in
  let glyph node =
    if is_free t node then '.'
    else
      let o = t.owners.(node) in
      if o = down_owner then '!' else Char.chr (Char.code 'A' + (o mod 26))
  in
  for z = 0 to d.nz - 1 do
    Format.fprintf ppf "z=%d@." z;
    for y = d.ny - 1 downto 0 do
      for x = 0 to d.nx - 1 do
        Format.fprintf ppf "%c" (glyph (Coord.index d (Coord.make x y z)))
      done;
      Format.fprintf ppf "@."
    done
  done
