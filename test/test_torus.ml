(* Unit and property tests for the bgl_torus substrate. *)

open Bgl_torus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let coord = Alcotest.testable Coord.pp Coord.equal
let box_t = Alcotest.testable Box.pp Box.equal

(* Reference enumeration of a box's coordinates, wrapped into bounds,
   x fastest: what [Box.indices] must index. *)
let cells (d : Dims.t) (b : Box.t) =
  List.concat_map
    (fun dz ->
      List.concat_map
        (fun dy ->
          List.init b.shape.sx (fun dx ->
              Coord.wrap d (Coord.make (b.base.x + dx) (b.base.y + dy) (b.base.z + dz))))
        (List.init b.shape.sy Fun.id))
    (List.init b.shape.sz Fun.id)

(* Membership of a node is overlap with the one-node box at it. *)
let member d b c = Box.overlap d b (Box.make c (Shape.make 1 1 1))

(* ------------------------------------------------------------------ *)
(* Dims *)

let test_dims_make () =
  let d = Dims.make 4 4 8 in
  check_int "volume" 128 (Dims.volume d);
  check_bool "bgl equal" true (d = Dims.bgl)

let test_dims_invalid () =
  Alcotest.check_raises "zero" (Invalid_argument "Dims.make: dimensions must be positive")
    (fun () -> ignore (Dims.make 0 1 1))

let test_dims_string_round_trip () =
  Alcotest.(check string) "to_string" "4x4x8" (Dims.to_string Dims.bgl);
  (match Dims.of_string "4x4x8" with
  | Ok d -> check_bool "parse" true (d = Dims.bgl)
  | Error e -> Alcotest.fail e);
  (match Dims.of_string " 2X3x4 " with
  | Ok d -> check_bool "case and spaces" true (d = (Dims.make 2 3 4))
  | Error e -> Alcotest.fail e);
  check_bool "garbage rejected" true (Result.is_error (Dims.of_string "4x4"));
  check_bool "negative rejected" true (Result.is_error (Dims.of_string "4x-4x8"))

let test_dims_comma_form () =
  (match Dims.of_string "64,32,32" with
  | Ok d -> check_bool "comma parse" true (d = Dims.bgl_full)
  | Error e -> Alcotest.fail e);
  (match Dims.of_string " 4, 4, 8 " with
  | Ok d -> check_bool "comma with spaces" true (d = Dims.bgl)
  | Error e -> Alcotest.fail e);
  check_bool "mixed separators rejected" true (Result.is_error (Dims.of_string "4,4x8"));
  check_bool "trailing comma rejected" true (Result.is_error (Dims.of_string "4,4,8,"));
  check_int "bgl_full volume" 65536 (Dims.volume Dims.bgl_full)

(* ------------------------------------------------------------------ *)
(* Coord *)

let test_coord_index_round_trip () =
  let d = Dims.bgl in
  for i = 0 to Dims.volume d - 1 do
    check_int "round trip" i (Coord.index d (Coord.of_index d i))
  done

let test_coord_index_order () =
  let d = Dims.make 3 4 5 in
  check_int "origin" 0 (Coord.index d (Coord.make 0 0 0));
  check_int "x fastest" 1 (Coord.index d (Coord.make 1 0 0));
  check_int "then y" 3 (Coord.index d (Coord.make 0 1 0));
  check_int "then z" 12 (Coord.index d (Coord.make 0 0 1))

let test_coord_wrap () =
  let d = Dims.make 4 4 8 in
  Alcotest.check coord "wrap positive" (Coord.make 1 0 2) (Coord.wrap d (Coord.make 5 4 10));
  Alcotest.check coord "wrap negative" (Coord.make 3 3 7) (Coord.wrap d (Coord.make (-1) (-1) (-1)))

let test_coord_in_bounds () =
  let d = Dims.make 2 2 2 in
  check_bool "inside" true (Coord.in_bounds d (Coord.make 1 1 1));
  check_bool "outside" false (Coord.in_bounds d (Coord.make 2 0 0));
  check_bool "negative" false (Coord.in_bounds d (Coord.make 0 (-1) 0))

let test_coord_of_index_invalid () =
  Alcotest.check_raises "too large" (Invalid_argument "Coord.of_index: out of range") (fun () ->
      ignore (Coord.of_index Dims.bgl 128))

(* ------------------------------------------------------------------ *)
(* Shape *)

let test_shape_volume_fits () =
  let s = Shape.make 2 3 4 in
  check_int "volume" 24 (Shape.volume s);
  check_bool "fits 4x4x8" true (Shape.fits Dims.bgl s);
  check_bool "5 wide does not fit" false (Shape.fits Dims.bgl (Shape.make 5 1 1))

let test_shape_rotations () =
  check_int "distinct perms of 1x2x3" 6 (List.length (Shape.rotations (Shape.make 1 2 3)));
  check_int "cube has one" 1 (List.length (Shape.rotations (Shape.make 2 2 2)));
  check_int "two equal extents" 3 (List.length (Shape.rotations (Shape.make 2 2 3)))

(* ------------------------------------------------------------------ *)
(* Box *)

let test_box_cells_count_and_dedup () =
  let d = Dims.bgl in
  let b = Box.make (Coord.make 3 3 7) (Shape.make 2 2 2) in
  let nodes = Box.indices d b in
  check_int "volume cells" 8 (List.length nodes);
  check_int "all distinct" 8 (List.length (List.sort_uniq Int.compare nodes));
  check_bool "wraps through origin" true (List.mem 0 nodes)

let test_box_indices_in_range () =
  let d = Dims.bgl in
  let b = Box.make (Coord.make 2 3 6) (Shape.make 3 2 4) in
  List.iter
    (fun i -> check_bool "index in range" true (i >= 0 && i < Dims.volume d))
    (Box.indices d b)

let test_box_canonical () =
  let d = Dims.bgl in
  let full_z = Box.make (Coord.make 1 2 5) (Shape.make 1 1 8) in
  let canon = Box.canonical d ~wrap:true full_z in
  Alcotest.check box_t "z collapsed" (Box.make (Coord.make 1 2 0) (Shape.make 1 1 8)) canon;
  Alcotest.check box_t "no wrap unchanged" full_z (Box.canonical d ~wrap:false full_z)

let test_box_member () =
  let d = Dims.bgl in
  let b = Box.make (Coord.make 3 0 0) (Shape.make 2 1 1) in
  check_bool "base" true (member d b (Coord.make 3 0 0));
  check_bool "wrapped cell" true (member d b (Coord.make 0 0 0));
  check_bool "not member" false (member d b (Coord.make 1 0 0))

let test_box_overlap () =
  let d = Dims.bgl in
  let a = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let b = Box.make (Coord.make 1 1 1) (Shape.make 2 2 2) in
  let c = Box.make (Coord.make 2 2 2) (Shape.make 2 2 2) in
  check_bool "a overlaps b" true (Box.overlap d a b);
  check_bool "a does not overlap c" false (Box.overlap d a c);
  let wrapped = Box.make (Coord.make 3 0 0) (Shape.make 2 2 2) in
  check_bool "wraps into a" true (Box.overlap d a wrapped)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_occupy_vacate () =
  let g = Grid.create Dims.bgl in
  check_int "all free" 128 (Grid.free_count g);
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:7;
  check_int "free after occupy" 120 (Grid.free_count g);
  check_int "busy" 8 (Grid.busy_count g);
  Alcotest.(check (option int)) "owner" (Some 7) (Grid.owner g 0);
  check_bool "box not free" false (Grid.box_is_free g b);
  Grid.vacate g b ~owner:7;
  check_int "free after vacate" 128 (Grid.free_count g);
  check_bool "box free again" true (Grid.box_is_free g b)

let test_grid_double_occupy_rejected () =
  let g = Grid.create Dims.bgl in
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:1;
  let overlapping = Box.make (Coord.make 1 1 1) (Shape.make 2 2 2) in
  check_bool "raises on overlap" true
    (try
       Grid.occupy g overlapping ~owner:2;
       false
     with Invalid_argument _ -> true);
  (* The failed claim must not have changed anything. *)
  check_int "free count unchanged" 120 (Grid.free_count g);
  Alcotest.(check (option int)) "unclaimed cell still free" None
    (Grid.owner g (Coord.index Dims.bgl (Coord.make 2 2 2)))

let test_grid_vacate_wrong_owner () =
  let g = Grid.create Dims.bgl in
  let b = Box.make (Coord.make 0 0 0) (Shape.make 1 1 1) in
  Grid.occupy g b ~owner:1;
  check_bool "wrong owner rejected" true
    (try
       Grid.vacate g b ~owner:2;
       false
     with Invalid_argument _ -> true)

let test_grid_owners () =
  let g = Grid.create Dims.bgl in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 1 1 1)) ~owner:5;
  Grid.occupy g (Box.make (Coord.make 1 0 0) (Shape.make 1 1 1)) ~owner:3;
  Grid.occupy_node g 10 ~owner:Grid.down_owner;
  Alcotest.(check (list int)) "owners sorted" [ Grid.down_owner; 3; 5 ] (Grid.owners g)

let test_grid_down_owner () =
  let g = Grid.create Dims.bgl in
  Grid.occupy_node g 0 ~owner:Grid.down_owner;
  check_bool "down node not free" false (Grid.is_free g 0);
  Grid.vacate_node g 0 ~owner:Grid.down_owner;
  check_bool "repaired" true (Grid.is_free g 0)

let test_grid_version_fingerprint () =
  let g = Grid.create Dims.bgl in
  check_int "fresh version" 0 (Grid.version g);
  check_int "fresh fingerprint" 0 (Grid.fingerprint g);
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:7;
  check_int "version counts cells" 8 (Grid.version g);
  let fp_occupied = Grid.fingerprint g in
  check_bool "occupied fingerprint differs" true (fp_occupied <> 0);
  (* Same occupancy under a different owner: same fingerprint. *)
  let g2 = Grid.create Dims.bgl in
  Grid.occupy g2 b ~owner:3;
  check_int "owner-independent" fp_occupied (Grid.fingerprint g2);
  (* A probe (occupy then vacate) restores the fingerprint but not the
     version. *)
  let probe = Box.make (Coord.make 2 2 2) (Shape.make 2 1 1) in
  Grid.occupy g probe ~owner:9;
  check_bool "probe changes fingerprint" true (Grid.fingerprint g <> fp_occupied);
  Grid.vacate g probe ~owner:9;
  check_int "probe restores fingerprint" fp_occupied (Grid.fingerprint g);
  check_int "version is monotonic" 12 (Grid.version g);
  (* Vacating back to empty restores the empty fingerprint. *)
  Grid.vacate g b ~owner:7;
  check_int "empty again" 0 (Grid.fingerprint g)

(* ------------------------------------------------------------------ *)
(* Prefix *)

let random_grid rng dims wrap p_busy =
  let g = Grid.create ~wrap dims in
  for node = 0 to Dims.volume dims - 1 do
    if Bgl_stats.Rng.unit_float rng < p_busy then Grid.occupy_node g node ~owner:(node mod 7)
  done;
  g

let test_prefix_matches_direct () =
  let rng = Bgl_stats.Rng.create ~seed:77 in
  let d = Dims.make 3 4 5 in
  List.iter
    (fun wrap ->
      let g = random_grid rng d wrap 0.4 in
      let table = Prefix.build g in
      let shapes = [ Shape.make 1 1 1; Shape.make 2 2 2; Shape.make 3 1 2; Shape.make 3 4 5 ] in
      List.iter
        (fun shape ->
          List.iter
            (fun base ->
              let b = Box.make base shape in
              let direct =
                List.length (List.filter (fun i -> not (Grid.is_free g i)) (Box.indices d b))
              in
              check_int "prefix count" direct (Prefix.occupied_in_box table b))
            (if wrap then
               List.concat_map
                 (fun z ->
                   List.concat_map
                     (fun y -> List.map (fun x -> Coord.make x y z) (List.init d.nx Fun.id))
                     (List.init d.ny Fun.id))
                 (List.init d.nz Fun.id)
             else
               let ok ext dim = List.init (dim - ext + 1) Fun.id in
               List.concat_map
                 (fun z ->
                   List.concat_map
                     (fun y -> List.map (fun x -> Coord.make x y z) (ok shape.sx d.nx))
                     (ok shape.sy d.ny))
                 (ok shape.sz d.nz)))
        shapes)
    [ true; false ]

(* Word-level occupancy reads, the input the finder's free-row masks
   are rebuilt from: every window, including ones that straddle a
   32-node word boundary and the last partial word, packs [is_free]. *)
let occupied_bits_match g =
  let n = Dims.volume (Grid.dims g) in
  let ok = ref true in
  for pos = 0 to n - 1 do
    for len = 1 to min 32 (n - pos) do
      let bits = Grid.occupied_bits g ~pos ~len in
      for i = 0 to len - 1 do
        if (bits lsr i) land 1 = 1 = Grid.is_free g (pos + i) then ok := false
      done;
      if bits lsr len <> 0 then ok := false
    done
  done;
  !ok

let test_grid_occupied_bits () =
  let d = Dims.make 40 3 2 in
  let g = Grid.create d in
  check_bool "empty grid reads 0" true (occupied_bits_match g);
  (* Nodes 31 and 32 sit on either side of the first word boundary. *)
  Grid.occupy g (Box.make (Coord.make 30 0 0) (Shape.make 4 1 1)) ~owner:1;
  check_int "straddling window" 0b1111 (Grid.occupied_bits g ~pos:30 ~len:4);
  check_int "window from the boundary" 0b11 (Grid.occupied_bits g ~pos:32 ~len:20);
  (* A box wrapping past x = 39 and y = 2 covers both ends of its rows
     and the last node of the grid. *)
  Grid.occupy g (Box.make (Coord.make 38 2 1) (Shape.make 4 2 1)) ~owner:2;
  check_bool "every window packs is_free" true (occupied_bits_match g);
  check_int "last partial word" 0b11 (Grid.occupied_bits g ~pos:(Dims.volume d - 2) ~len:2)

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_counts () =
  let d = Dims.make 4 4 8 in
  let g = Grid.create d in
  let s = Grid.summary g in
  check_int "x slab starts full" (4 * 8) (Summary.slab_free s ~axis:`X 0);
  check_int "z slab starts full" (4 * 4) (Summary.slab_free s ~axis:`Z 7);
  Grid.occupy g (Box.make (Coord.make 1 2 3) (Shape.make 1 1 1)) ~owner:5;
  check_int "x slab decremented" ((4 * 8) - 1) (Summary.slab_free s ~axis:`X 1);
  check_int "y slab decremented" ((4 * 8) - 1) (Summary.slab_free s ~axis:`Y 2);
  check_int "z slab decremented" ((4 * 4) - 1) (Summary.slab_free s ~axis:`Z 3);
  check_int "other slab untouched" (4 * 8) (Summary.slab_free s ~axis:`X 0);
  Grid.vacate g (Box.make (Coord.make 1 2 3) (Shape.make 1 1 1)) ~owner:5;
  check_int "x slab restored" (4 * 8) (Summary.slab_free s ~axis:`X 1)

let test_summary_full_grid_infeasible () =
  let d = Dims.make 4 4 8 in
  let g = Grid.create d in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)) ~owner:1;
  check_bool "unit shape infeasible on full grid" false
    (Summary.shape_feasible (Grid.summary g) ~wrap:true (Shape.make 1 1 1));
  Grid.vacate g (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)) ~owner:1;
  check_bool "whole machine feasible when empty" true
    (Summary.shape_feasible (Grid.summary g) ~wrap:true (Shape.make 4 4 8))

(* ------------------------------------------------------------------ *)
(* Properties *)

let dims_gen =
  QCheck.Gen.(
    map3 (fun a b c -> Dims.make a b c) (int_range 1 5) (int_range 1 5) (int_range 1 6))

let arb_dims = QCheck.make ~print:Dims.to_string dims_gen

let prop_coord_round_trip =
  QCheck.Test.make ~name:"coord index round-trip" ~count:300
    QCheck.(pair arb_dims (int_range 0 1000))
    (fun (d, i) ->
      let i = i mod Dims.volume d in
      Coord.index d (Coord.of_index d i) = i)

let prop_box_cells_distinct =
  QCheck.Test.make ~name:"box cells are volume-many distinct nodes" ~count:300
    QCheck.(quad arb_dims (int_range 0 999) (int_range 1 6) (pair (int_range 1 6) (int_range 1 6)))
    (fun (d, base_seed, sx, (sy, sz)) ->
      let sx = 1 + (sx - 1) mod d.nx
      and sy = 1 + (sy - 1) mod d.ny
      and sz = 1 + (sz - 1) mod d.nz in
      let base = Coord.of_index d (base_seed mod Dims.volume d) in
      let b = Box.make base (Shape.make sx sy sz) in
      let nodes = Box.indices d b in
      List.length nodes = sx * sy * sz
      && List.length (List.sort_uniq Int.compare nodes) = sx * sy * sz
      && List.for_all (fun i -> i >= 0 && i < Dims.volume d) nodes)

let prop_overlap_matches_cells =
  (* Without wrap the boxes are clipped: each base keeps its box inside
     the machine, as the finders place them on an unwrapped grid. *)
  QCheck.Test.make ~name:"Box.overlap agrees with cell intersection" ~count:600
    QCheck.(
      triple arb_dims bool
        (pair (pair (int_range 0 999) (int_range 0 999)) (pair (int_range 1 216) (int_range 1 216))))
    (fun (d, wrap, ((b1, b2), (s1, s2))) ->
      let mk bseed sseed =
        let base = Coord.of_index d (bseed mod Dims.volume d) in
        let sx = 1 + (sseed mod d.nx) in
        let sy = 1 + (sseed / 7 mod d.ny) in
        let sz = 1 + (sseed / 49 mod d.nz) in
        let base =
          if wrap then base
          else
            Coord.make (base.x mod (d.nx - sx + 1)) (base.y mod (d.ny - sy + 1))
              (base.z mod (d.nz - sz + 1))
        in
        Box.make base (Shape.make sx sy sz)
      in
      let bx1 = mk b1 s1 and bx2 = mk b2 s2 in
      let set1 = Box.indices d bx1 and set2 = Box.indices d bx2 in
      let inter = List.exists (fun i -> List.mem i set2) set1 in
      Box.overlap d bx1 bx2 = inter)

let prop_member_matches_cells =
  QCheck.Test.make ~name:"Box.member agrees with cell list" ~count:300
    QCheck.(pair arb_dims (pair (int_range 0 999) (int_range 1 216)))
    (fun (d, (bseed, sseed)) ->
      let base = Coord.of_index d (bseed mod Dims.volume d) in
      let sx = 1 + (sseed mod d.nx) in
      let sy = 1 + (sseed / 7 mod d.ny) in
      let sz = 1 + (sseed / 49 mod d.nz) in
      let b = Box.make base (Shape.make sx sy sz) in
      let cells = cells d b in
      List.for_all
        (fun i ->
          let c = Coord.of_index d i in
          member d b c = List.exists (Coord.equal c) cells)
        (List.init (Dims.volume d) Fun.id))

let prop_grid_free_count =
  QCheck.Test.make ~name:"grid free count tracks occupancy" ~count:200
    QCheck.(pair small_int (pair arb_dims (float_bound_inclusive 1.)))
    (fun (seed, (d, p)) ->
      let rng = Bgl_stats.Rng.create ~seed in
      let g = random_grid rng d true p in
      let free = ref 0 in
      for i = 0 to Dims.volume d - 1 do
        if Grid.is_free g i then incr free
      done;
      !free = Grid.free_count g && Grid.busy_count g = Dims.volume d - !free)

let prop_prefix_agrees =
  QCheck.Test.make ~name:"prefix counts equal direct counts" ~count:200
    QCheck.(
      pair small_int (pair arb_dims (pair bool (pair (float_bound_inclusive 1.) (pair (int_range 0 999) (int_range 1 216))))))
    (fun (seed, (d, (wrap, (p, (bseed, sseed))))) ->
      let rng = Bgl_stats.Rng.create ~seed in
      let g = random_grid rng d wrap p in
      let table = Prefix.build g in
      let sx = 1 + (sseed mod d.nx) in
      let sy = 1 + (sseed / 7 mod d.ny) in
      let sz = 1 + (sseed / 49 mod d.nz) in
      let base =
        if wrap then Coord.of_index d (bseed mod Dims.volume d)
        else
          Coord.make
            (bseed mod (d.nx - sx + 1))
            (bseed / 5 mod (d.ny - sy + 1))
            (bseed / 25 mod (d.nz - sz + 1))
      in
      let b = Box.make base (Shape.make sx sy sz) in
      let direct = List.length (List.filter (fun i -> not (Grid.is_free g i)) (Box.indices d b)) in
      Prefix.occupied_in_box table b = direct)

(* Random alloc/free sequences. Each op is a pair of seeds decoded
   against the dims: it either claims a fully free box, releases a box
   we own, or toggles one node. The op list shrinks as a list, so
   counterexamples minimize to short sequences. *)
let apply_op g (bseed, sseed) =
  let d = Grid.dims g in
  let owner = 5 in
  let sx = 1 + (sseed mod d.nx) in
  let sy = 1 + (sseed / 7 mod d.ny) in
  let sz = 1 + (sseed / 49 mod d.nz) in
  let b = Box.make (Coord.of_index d (bseed mod Dims.volume d)) (Shape.make sx sy sz) in
  let cells = Box.indices d b in
  if List.for_all (Grid.is_free g) cells then Grid.occupy g b ~owner
  else if List.for_all (fun i -> Grid.owner g i = Some owner) cells then Grid.vacate g b ~owner
  else begin
    let node = bseed mod Dims.volume d in
    match Grid.owner g node with
    | None -> Grid.occupy_node g node ~owner
    | Some o -> Grid.vacate_node g node ~owner:o
  end

let prop_summary_feasible_necessary =
  (* The summary may say "maybe" for a shape with no placement, but it
     must never say "no" when a direct scan finds a free box — a false
     rejection would make the gated finders drop real candidates. *)
  QCheck.Test.make ~name:"summary shape_feasible is a necessary condition" ~count:300
    QCheck.(
      pair
        (pair arb_dims bool)
        (pair (small_list (int_range 0 999)) (pair (int_range 1 6) (pair (int_range 1 6) (int_range 1 6)))))
    (fun ((d, wrap), (nodes, (sx, (sy, sz)))) ->
      let g = Grid.create ~wrap d in
      List.iter
        (fun n ->
          let n = n mod Dims.volume d in
          if Grid.is_free g n then Grid.occupy_node g n ~owner:7)
        nodes;
      let s =
        Shape.make (1 + ((sx - 1) mod d.nx)) (1 + ((sy - 1) mod d.ny)) (1 + ((sz - 1) mod d.nz))
      in
      let box_free b = List.for_all (Grid.is_free g) (Box.indices d b) in
      let hi dim ext = if wrap then dim - 1 else dim - ext in
      let exists_direct = ref false in
      for x = 0 to hi d.nx s.Shape.sx do
        for y = 0 to hi d.ny s.Shape.sy do
          for z = 0 to hi d.nz s.Shape.sz do
            if box_free (Box.make (Coord.make x y z) s) then exists_direct := true
          done
        done
      done;
      (not !exists_direct) || Summary.shape_feasible (Grid.summary g) ~wrap s)

let prop_occupied_bits_after_ops =
  QCheck.Test.make ~name:"occupied_bits packs is_free after random ops" ~count:200
    QCheck.(
      pair
        (pair (pair (int_range 1 70) (pair (int_range 1 4) (int_range 1 3))) bool)
        (small_list (pair (int_range 0 999) (int_range 0 999))))
    (fun (((nx, (ny, nz)), wrap), ops) ->
      (* x extents up to 70 give rows of one to three words. *)
      let g = Grid.create ~wrap (Dims.make nx ny nz) in
      List.iter (apply_op g) ops;
      occupied_bits_match g)

let prop_fingerprint_tracks_occupancy =
  QCheck.Test.make ~name:"fingerprint identifies the free/occupied set" ~count:200
    QCheck.(
      pair (pair arb_dims bool) (small_list (pair (int_range 0 999) (int_range 0 999))))
    (fun ((d, wrap), ops) ->
      let g = Grid.create ~wrap d in
      let reference = Grid.create ~wrap d in
      (* Replay the same occupancy into [reference] node by node, in a
         different order and under different owners: fingerprints must
         still agree, and version must count every mutation. *)
      List.iter (apply_op g) ops;
      for node = Dims.volume d - 1 downto 0 do
        if not (Grid.is_free g node) then Grid.occupy_node reference node ~owner:11
      done;
      Grid.fingerprint reference = Grid.fingerprint g
      && Grid.version g >= Grid.busy_count g)

(* Axis lengths 1 to 9 and 12: unit, even, odd and prime axes, each
   long enough for a box to cross the seam. *)
let axis_gen = QCheck.Gen.oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 12 ]

let arb_axes_dims =
  QCheck.make ~print:Dims.to_string (QCheck.Gen.map3 Dims.make axis_gen axis_gen axis_gen)

let prop_indices_match_cells =
  (* Every fitting shape, from the origin, from a random in-bounds base
     and from the last cell of every axis, where each box with an
     extent above 1 crosses the seam. *)
  QCheck.Test.make ~name:"Box.indices equals the indices of Box.cells" ~count:100
    QCheck.(pair arb_axes_dims small_nat)
    (fun (d, seed) ->
      let vol = Dims.volume d in
      let ok = ref true and k = ref 0 in
      for sx = 1 to d.nx do
        for sy = 1 to d.ny do
          for sz = 1 to d.nz do
            incr k;
            let s = Shape.make sx sy sz in
            List.iter
              (fun base ->
                let b = Box.make base s in
                if Box.indices d b <> List.map (Coord.index d) (cells d b) then ok := false)
              [
                Coord.make 0 0 0;
                Coord.of_index d ((seed + (!k * 7919)) mod vol);
                Coord.make (d.nx - 1) (d.ny - 1) (d.nz - 1);
              ]
          done
        done
      done;
      !ok)

(* Each axis's slab counts against a recount from [Grid.is_free]. *)
let summary_matches_recount g =
  let d = Grid.dims g and s = Grid.summary g in
  let counts axis n =
    let a = Array.make n 0 in
    for i = 0 to Dims.volume d - 1 do
      if Grid.is_free g i then begin
        let c = Coord.of_index d i in
        let j = match axis with `X -> c.x | `Y -> c.y | `Z -> c.z in
        a.(j) <- a.(j) + 1
      end
    done;
    a
  in
  List.for_all
    (fun (axis, n) ->
      let a = counts axis n in
      List.for_all (fun i -> Summary.slab_free s ~axis i = a.(i)) (List.init n Fun.id))
    [ (`X, d.nx); (`Y, d.ny); (`Z, d.nz) ]

let prop_summary_tracks_box_and_node_ops =
  (* Boxes are claimed and released whole (one Summary update per box),
     single nodes are taken down and brought back (one per node). *)
  QCheck.Test.make ~name:"summary slab counts equal a recount after box and node ops"
    ~count:300
    QCheck.(triple arb_axes_dims bool (small_list (pair (int_range 0 9999) (int_range 0 9999))))
    (fun (d, wrap, ops) ->
      let g = Grid.create ~wrap d in
      let owner = 5 in
      List.for_all
        (fun (bseed, sseed) ->
          let s =
            Shape.make
              (1 + (sseed mod d.nx))
              (1 + (sseed / 13 mod d.ny))
              (1 + (sseed / 169 mod d.nz))
          in
          let b = Box.make (Coord.of_index d (bseed mod Dims.volume d)) s in
          let cells = Box.indices d b in
          (if List.for_all (Grid.is_free g) cells then Grid.occupy g b ~owner
           else if List.for_all (fun i -> Grid.owner g i = Some owner) cells then
             Grid.vacate g b ~owner
           else
             let node = bseed mod Dims.volume d in
             match Grid.owner g node with
             | None -> Grid.occupy_node g node ~owner:Grid.down_owner
             | Some o -> Grid.vacate_node g node ~owner:o);
          summary_matches_recount g)
        ops)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_indices_match_cells;
      prop_summary_tracks_box_and_node_ops;
      prop_coord_round_trip;
      prop_box_cells_distinct;
      prop_overlap_matches_cells;
      prop_member_matches_cells;
      prop_grid_free_count;
      prop_prefix_agrees;
      prop_summary_feasible_necessary;
      prop_occupied_bits_after_ops;
      prop_fingerprint_tracks_occupancy;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_torus"
    [
      ( "dims",
        [
          tc "make/volume" test_dims_make;
          tc "invalid" test_dims_invalid;
          tc "string round trip" test_dims_string_round_trip;
          tc "comma form and bgl_full" test_dims_comma_form;
        ] );
      ( "coord",
        [
          tc "index round trip" test_coord_index_round_trip;
          tc "index order" test_coord_index_order;
          tc "wrap" test_coord_wrap;
          tc "in_bounds" test_coord_in_bounds;
          tc "of_index invalid" test_coord_of_index_invalid;
        ] );
      ("shape", [ tc "volume/fits" test_shape_volume_fits; tc "rotations" test_shape_rotations ]);
      ( "box",
        [
          tc "cells count and dedup" test_box_cells_count_and_dedup;
          tc "indices in range" test_box_indices_in_range;
          tc "canonical" test_box_canonical;
          tc "member" test_box_member;
          tc "overlap" test_box_overlap;
        ] );
      ( "grid",
        [
          tc "occupy/vacate" test_grid_occupy_vacate;
          tc "double occupy rejected" test_grid_double_occupy_rejected;
          tc "vacate wrong owner" test_grid_vacate_wrong_owner;
          tc "owners" test_grid_owners;
          tc "down owner" test_grid_down_owner;
          tc "version and fingerprint" test_grid_version_fingerprint;
          tc "occupied bits match is_free" test_grid_occupied_bits;
        ] );
      ( "prefix",
        [
          tc "matches direct counts" test_prefix_matches_direct;
        ] );
      ( "summary",
        [
          tc "slab counts track mutations" test_summary_counts;
          tc "full grid is infeasible" test_summary_full_grid_infeasible;
        ] );
      ("properties", props);
    ]
