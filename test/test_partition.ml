(* Unit and property tests for the partition finders and MFP. *)

open Bgl_torus
open Bgl_partition

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let box_t = Alcotest.testable Box.pp Box.equal
let boxes = Alcotest.(list box_t)

(* ------------------------------------------------------------------ *)
(* Shapes *)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Shapes.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Shapes.divisors 1);
  Alcotest.(check (list int)) "prime" [ 1; 13 ] (Shapes.divisors 13);
  Alcotest.(check (list int)) "square" [ 1; 2; 4; 8; 16 ] (Shapes.divisors 16)

let test_divisors_invalid () =
  Alcotest.check_raises "zero" (Invalid_argument "Shapes.divisors: argument must be positive")
    (fun () -> ignore (Shapes.divisors 0))

let test_shapes_of_volume () =
  let d = Dims.bgl in
  let shapes = Shapes.shapes_of_volume d 8 in
  check_bool "all have volume 8" true (List.for_all (fun s -> Shape.volume s = 8) shapes);
  check_bool "all fit" true (List.for_all (Shape.fits d) shapes);
  (* Volume 8 on 4x4x8: 1x1x8 1x2x4 1x4x2 2x1x4 2x2x2 2x4x1 4x1x2 4x2x1 1x8x? no (ny=4). *)
  check_int "count" 8 (List.length shapes)

let test_shapes_of_volume_infeasible () =
  (* 11 is prime and 11 > 8, so no shape fits a 4x4x8 torus. *)
  Alcotest.(check (list (Alcotest.testable Shape.pp Shape.equal)))
    "no shape of 11" [] (Shapes.shapes_of_volume Dims.bgl 11)

let test_feasible_volumes () =
  let vols = Shapes.feasible_volumes Dims.bgl in
  check_bool "contains 1" true (List.mem 1 vols);
  check_bool "contains 128" true (List.mem 128 vols);
  check_bool "no 11" false (List.mem 11 vols);
  check_bool "sorted" true (List.sort Int.compare vols = vols);
  check_bool "contains 7 (1x1x7)" true (List.mem 7 vols)

let test_round_up_volume () =
  let d = Dims.bgl in
  Alcotest.(check (option int)) "exact" (Some 8) (Shapes.round_up_volume d 8);
  Alcotest.(check (option int)) "11 -> 12" (Some 12) (Shapes.round_up_volume d 11);
  Alcotest.(check (option int)) "torus-filling" (Some 128) (Shapes.round_up_volume d 128);
  Alcotest.(check (option int)) "too large" None (Shapes.round_up_volume d 129);
  (* 97..100: 97 prime > 8... the next feasible volume above 96 is 112 (2x4x14? no).
     Check it agrees with a direct search. *)
  let direct s =
    let rec up v = if v > 128 then None else if Shapes.shapes_of_volume d v <> [] then Some v else up (v + 1) in
    up s
  in
  for s = 1 to 128 do
    Alcotest.(check (option int))
      (Printf.sprintf "round_up %d" s)
      (direct s) (Shapes.round_up_volume d s)
  done

let test_shapes_desc_order () =
  let desc = Shapes.shapes_desc Dims.bgl in
  check_int "all shapes of 4x4x8" (4 * 4 * 8) (List.length desc);
  let volumes = List.map Shape.volume desc in
  check_bool "non-increasing" true
    (List.for_all2 (fun a b -> a >= b) (List.filteri (fun i _ -> i < List.length volumes - 1) volumes)
       (List.tl volumes))

(* ------------------------------------------------------------------ *)
(* Finders: hand-built scenarios *)

(* A one-off production query: a fresh cache, so no memo answers it. *)
let cache_find g ~volume = Finder.Cache.find (Finder.Cache.create g) ~volume
let cache_select g ~volume ~cap = Finder.Cache.select (Finder.Cache.create g) ~volume ~cap
let ref_find = Finder.Reference.find

(* Every finder under test: the production cache and the paper's
   reference lineage. *)
let finders =
  ("cache", cache_find)
  :: List.map (fun algo -> (Finder.Reference.name algo, ref_find algo)) Finder.Reference.all

let test_find_empty_torus_singletons () =
  let g = Grid.create Dims.bgl in
  List.iter
    (fun (name, find) -> check_int (name ^ " singletons") 128 (List.length (find g ~volume:1)))
    finders

let test_find_full_torus () =
  let g = Grid.create Dims.bgl in
  List.iter
    (fun (name, find) ->
      (* Exactly one canonical box covers the whole torus. *)
      Alcotest.check boxes (name ^ " full box")
        [ Box.make (Coord.make 0 0 0) (Shape.make 4 4 8) ]
        (find g ~volume:128))
    finders

let test_find_respects_occupancy () =
  let g = Grid.create Dims.bgl in
  (* Occupy the z=0 plane: no box touching z=0 is free. *)
  for x = 0 to 3 do
    for y = 0 to 3 do
      Grid.occupy_node g (Coord.index Dims.bgl (Coord.make x y 0)) ~owner:1
    done
  done;
  List.iter
    (fun (name, find) ->
      let found = find g ~volume:16 in
      check_bool (name ^ " avoids z=0") true
        (List.for_all
           (fun b -> List.for_all (fun (c : Coord.t) -> c.z <> 0) (Box.cells Dims.bgl b))
           found);
      check_bool (name ^ " finds some") true (found <> []))
    finders

let test_find_no_wrap_smaller () =
  let dwrap = Grid.create ~wrap:true (Dims.make 4 1 1) in
  let gnow = Grid.create ~wrap:false (Dims.make 4 1 1) in
  (* Occupy middle cells 1 and 2; a 2-box exists only with wraparound
     (cells 3 and 0). *)
  List.iter
    (fun g ->
      Grid.occupy_node g 1 ~owner:1;
      Grid.occupy_node g 2 ~owner:1)
    [ dwrap; gnow ];
  List.iter
    (fun (name, find) ->
      check_int (name ^ " wrap finds") 1 (List.length (find dwrap ~volume:2));
      check_int (name ^ " no-wrap finds none") 0 (List.length (find gnow ~volume:2)))
    finders

let test_find_infeasible_volume () =
  let g = Grid.create Dims.bgl in
  List.iter
    (fun (name, find) ->
      Alcotest.check boxes (name ^ " volume 11") [] (find g ~volume:11);
      Alcotest.check boxes (name ^ " beyond torus") [] (find g ~volume:129))
    finders

let test_rounded_up_size_candidates () =
  let g = Grid.create Dims.bgl in
  let for_11 =
    match Shapes.round_up_volume Dims.bgl 11 with
    | Some volume -> cache_find g ~volume
    | None -> []
  in
  check_bool "non-empty" true (for_11 <> []);
  check_bool "all volume 12" true (List.for_all (fun b -> Box.volume b = 12) for_11)

let test_exists_free () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  check_bool "empty torus has 128" true (Finder.Cache.exists_free cache ~volume:128);
  Grid.occupy_node g 0 ~owner:1;
  Finder.Cache.note_node cache 0;
  check_bool "no longer 128" false (Finder.Cache.exists_free cache ~volume:128);
  check_bool "still 64" true (Finder.Cache.exists_free cache ~volume:64)

let test_canonical_dedup_full_dim () =
  (* With wraparound, a shape spanning a full dimension must appear
     only with base 0 in that dimension. *)
  let g = Grid.create (Dims.make 4 1 1) in
  List.iter
    (fun (name, find) ->
      Alcotest.check boxes (name ^ " full-x dedup")
        [ Box.make (Coord.make 0 0 0) (Shape.make 4 1 1) ]
        (find g ~volume:4))
    finders

(* ------------------------------------------------------------------ *)
(* Finder.Cache: hand-built scenarios *)

let test_cache_basic () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  let direct = ref_find Shape_search g ~volume:8 in
  Alcotest.check boxes "cold query" direct (Finder.Cache.find cache ~volume:8);
  Alcotest.check boxes "memo hit" direct (Finder.Cache.find cache ~volume:8);
  let hits, misses = Finder.Cache.stats cache in
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses;
  (* A noted mutation invalidates exactly the stale entries. *)
  let b = List.hd direct in
  Grid.occupy g b ~owner:3;
  Finder.Cache.note_box cache b;
  Alcotest.check boxes "after occupy" (ref_find Shape_search g ~volume:8)
    (Finder.Cache.find cache ~volume:8);
  check_bool "table stayed incremental" true
    ((Finder.Cache.table_stats cache).Prefix.full_rebuilds = 0);
  (* Occupy+vacate restores the fingerprint, so the memo re-hits. *)
  Grid.vacate g b ~owner:3;
  Finder.Cache.note_box cache b;
  ignore (Finder.Cache.find cache ~volume:8);
  let probe = Box.make (Coord.make 2 2 2) (Shape.make 1 1 2) in
  Grid.occupy g probe ~owner:4;
  Finder.Cache.note_box cache probe;
  Grid.vacate g probe ~owner:4;
  Finder.Cache.note_box cache probe;
  let hits_before, _ = Finder.Cache.stats cache in
  Alcotest.check boxes "restored fingerprint re-hits" direct (Finder.Cache.find cache ~volume:8);
  let hits_after, _ = Finder.Cache.stats cache in
  check_int "hit count grew" (hits_before + 1) hits_after

let test_cache_self_heals_unnoted () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  ignore (Finder.Cache.find cache ~volume:4);
  (* Mutate WITHOUT telling the cache: the fingerprint change kills the
     memo entry and the version drift forces a full table rebuild — the
     result must still be correct. *)
  Grid.occupy_node g 0 ~owner:9;
  Alcotest.check boxes "correct despite missing note"
    (ref_find Shape_search g ~volume:4)
    (Finder.Cache.find cache ~volume:4);
  check_bool "healed by full rebuild" true
    ((Finder.Cache.table_stats cache).Prefix.full_rebuilds >= 1)

let test_differential_mode_toggle () =
  check_bool "off by default" false (Finder.differential_enabled ());
  Finder.set_differential true;
  Fun.protect
    ~finally:(fun () -> Finder.set_differential false)
    (fun () ->
      check_bool "enabled" true (Finder.differential_enabled ());
      (* Checked queries still agree on a non-trivial grid. *)
      let g = Grid.create Dims.bgl in
      Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 2)) ~owner:1;
      let cache = Finder.Cache.create g in
      let naive = ref_find Naive g ~volume:8 in
      Alcotest.check boxes "checked cache query" naive (Finder.Cache.find cache ~volume:8);
      Alcotest.check boxes "checked select" [ List.hd naive ]
        (Finder.Cache.select cache ~volume:8 ~cap:1);
      check_bool "checked exists_free" true (Finder.Cache.exists_free cache ~volume:64));
  check_bool "restored" false (Finder.differential_enabled ())

let test_differential_sampling () =
  Alcotest.check_raises "zero sample rejected"
    (Invalid_argument "Finder.set_differential: sample must be >= 1") (fun () ->
      Finder.set_differential ~sample:0 true);
  Finder.set_differential ~sample:3 true;
  Fun.protect
    ~finally:(fun () -> Finder.set_differential false)
    (fun () ->
      check_bool "sampling counts as enabled" true (Finder.differential_enabled ());
      (* Sampled queries must stay correct whether or not a given one
         is the checked one. *)
      let g = Grid.create Dims.bgl in
      Grid.occupy g (Box.make (Coord.make 1 1 1) (Shape.make 2 2 2)) ~owner:1;
      let cache = Finder.Cache.create g in
      for _ = 1 to 7 do
        Alcotest.check boxes "sampled cache query" (ref_find Naive g ~volume:8)
          (Finder.Cache.find cache ~volume:8)
      done);
  check_bool "restored" false (Finder.differential_enabled ())

let test_orientations_non_cubic () =
  let d = Dims.make 2 3 4 in
  let os = Shapes.orientations d (Shape.make 1 1 4) in
  check_bool "all orientations fit" true (List.for_all (Shape.fits d) os);
  check_int "only the z-aligned rotation survives" 1 (List.length os);
  check_bool "dropped rotations not resurrected" false
    (List.exists (fun s -> s.Shape.sx = 4 || s.Shape.sy = 4) os);
  (* On a cube no rotation is lost. *)
  check_int "cube keeps all three" 3
    (List.length (Shapes.orientations (Dims.make 4 4 4) (Shape.make 1 1 4)))

(* Summary gating switches on at volume >= 512; the gate must never
   change what the finders return, only how fast they reject. *)
let test_gated_find_agrees_at_scale () =
  let d = Dims.make 8 8 16 in
  let g = Grid.create d in
  check_bool "summary gating active at 1024 nodes" true (Finder.summary_gated g);
  (* Mostly-occupied grid keeps the naive reference affordable. *)
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 8 8 16)) ~owner:1;
  Grid.vacate g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 2)) ~owner:1;
  Grid.vacate g (Box.make (Coord.make 4 4 8) (Shape.make 2 2 4)) ~owner:1;
  List.iter
    (fun v ->
      let naive = ref_find Naive g ~volume:v in
      Alcotest.check boxes
        (Printf.sprintf "gated cache = naive at volume %d" v)
        naive (cache_find g ~volume:v);
      check_bool
        (Printf.sprintf "gated exists agrees at volume %d" v)
        (naive <> [])
        (Finder.Cache.exists_free (Finder.Cache.create g) ~volume:v))
    [ 1; 4; 8; 16; 32 ];
  check_int "gated MFP finds the larger pocket" 16 (Mfp.volume g)

(* ------------------------------------------------------------------ *)
(* MFP: hand-built scenarios *)

let test_mfp_empty_and_full () =
  let g = Grid.create Dims.bgl in
  check_int "empty torus MFP" 128 (Mfp.volume g);
  let full = Box.make (Coord.make 0 0 0) (Shape.make 4 4 8) in
  Grid.occupy g full ~owner:1;
  check_int "full torus MFP" 0 (Mfp.volume g);
  Alcotest.(check (option box_t)) "no box" None (Mfp.box g)

let test_mfp_after_restores_grid () =
  let g = Grid.create Dims.bgl in
  let candidate = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let free_before = Grid.free_count g in
  let v = Mfp.volume_after g candidate in
  check_int "grid restored" free_before (Grid.free_count g);
  check_bool "MFP shrank" true (v < 128);
  (* Occupying a 2x2x2 corner of a 4x4x8 torus leaves the 4x4x6 slab at
     z in [2, 8) entirely free, so the MFP after placement is 96. *)
  check_int "expected 96" 96 v

let test_mfp_loss () =
  let g = Grid.create Dims.bgl in
  let candidate = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let cache = Finder.Cache.create g in
  let before = Mfp.volume ~cache g in
  check_int "loss" (128 - 96) (before - Mfp.volume_after ~cache g candidate);
  check_int "cached and fresh probes agree" (Mfp.volume_after g candidate)
    (Mfp.volume_after ~cache g candidate);
  check_int "probes kept the memoised volume" before (Mfp.volume ~cache g)

let test_mfp_figure1_intuition () =
  (* Figure 1 of the paper: placing a job flush against existing jobs
     preserves a larger MFP than splitting the free space. Model a
     4x4x1 plane with a 2x2 job in a corner; placing a 2x1x1 job
     adjacent (sharing the occupied boundary) leaves more MFP than
     placing it in the middle of the free area. *)
  let d = Dims.make 4 4 1 in
  let g = Grid.create ~wrap:false d in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 1)) ~owner:1;
  let adjacent = Box.make (Coord.make 2 0 0) (Shape.make 2 1 1) in
  let middle = Box.make (Coord.make 1 2 0) (Shape.make 2 1 1) in
  check_bool "adjacent better" true (Mfp.volume_after g adjacent > Mfp.volume_after g middle)

(* ------------------------------------------------------------------ *)
(* Properties: cross-validate the finders and MFP *)

let dims_gen =
  QCheck.Gen.(map3 (fun a b c -> Dims.make a b c) (int_range 1 4) (int_range 1 4) (int_range 1 5))

let scenario_gen =
  QCheck.Gen.(
    map3
      (fun d (seed, wrap) p -> (d, seed, wrap, p))
      dims_gen (pair small_int bool) (float_bound_inclusive 0.9))

let print_scenario (d, seed, wrap, p) =
  Printf.sprintf "dims=%s seed=%d wrap=%b p=%.2f" (Dims.to_string d) seed wrap p

let arb_scenario = QCheck.make ~print:print_scenario scenario_gen

let build_grid (d, seed, wrap, p) =
  let rng = Bgl_stats.Rng.create ~seed in
  let g = Grid.create ~wrap d in
  for node = 0 to Dims.volume d - 1 do
    if Bgl_stats.Rng.unit_float rng < p then Grid.occupy_node g node ~owner:(node mod 5)
  done;
  g

let prop_finders_agree =
  QCheck.Test.make ~name:"all finders return the same set" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      let reference = ref_find Naive g ~volume in
      List.for_all (fun (_, find) -> find g ~volume = reference) finders)

let prop_found_boxes_are_free =
  QCheck.Test.make ~name:"found boxes are free and sized" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      List.for_all
        (fun b -> Box.volume b = volume && Grid.box_is_free g b)
        (cache_find g ~volume))

let prop_finder_complete =
  (* Every free canonical box of the requested volume is found. *)
  QCheck.Test.make ~name:"finder finds every free box" ~count:100
    QCheck.(pair arb_scenario (int_range 1 30))
    (fun (scenario, volume) ->
      let ((d, _, wrap, _) as sc) = scenario in
      let g = build_grid sc in
      let found = cache_find g ~volume in
      let all_free = ref true in
      List.iter
        (fun shape ->
          Finder.iter_bases d ~wrap shape ~f:(fun x y z ->
              let b = Box.canonical d ~wrap (Box.make (Coord.make x y z) shape) in
              if Grid.box_is_free g b && not (List.exists (Box.equal b) found) then
                all_free := false))
        (Shapes.shapes_of_volume d volume);
      !all_free)

let prop_mfp_matches_naive =
  QCheck.Test.make ~name:"MFP equals max volume with a free box" ~count:100 arb_scenario
    (fun scenario ->
      let ((d, _, _, _) as sc) = scenario in
      let g = build_grid sc in
      let naive_best =
        List.fold_left
          (fun best v ->
            if v > best && ref_find Naive g ~volume:v <> [] then v else best)
          0
          (Shapes.feasible_volumes d)
      in
      Mfp.volume g = naive_best)

let prop_mfp_box_is_free_and_maximal =
  QCheck.Test.make ~name:"MFP box is free with the reported volume" ~count:150 arb_scenario
    (fun scenario ->
      let g = build_grid scenario in
      match Mfp.box g with
      | None -> Mfp.volume g = 0
      | Some b -> Grid.box_is_free g b && Box.volume b = Mfp.volume g)

let prop_exists_free_agrees =
  QCheck.Test.make ~name:"exists_free agrees with find" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      Finder.Cache.exists_free (Finder.Cache.create g) ~volume = (cache_find g ~volume <> []))

let prop_shared_cache_matches_fresh =
  (* One cache answering every query kind in turn must answer like a
     fresh cache per query: the memos are keyed per query kind. *)
  QCheck.Test.make ~name:"a shared cache answers like fresh ones" ~count:100
    QCheck.(pair arb_scenario (int_range 1 30))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      let shared = Finder.Cache.create g in
      Finder.Cache.find shared ~volume = cache_find g ~volume
      && Finder.Cache.exists_free shared ~volume
         = Finder.Cache.exists_free (Finder.Cache.create g) ~volume
      && Finder.Cache.select shared ~volume ~cap:3 = cache_select g ~volume ~cap:3)

let prop_finders_agree_both_wraps =
  (* Same occupancy, both torus modes, every algorithm: all four must
     return the same sorted, duplicate-free box list. Guards the POP
     wrap canonicalization (the [z_starts]/[max_sz] interplay) on the
     exact grid pair where wrapping is the only difference. *)
  QCheck.Test.make ~name:"all finders agree on wrapped and unwrapped grids" ~count:100
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun ((d, seed, _, p), volume) ->
      List.for_all
        (fun wrap ->
          let g = build_grid (d, seed, wrap, p) in
          let reference = ref_find Naive g ~volume in
          let sorted_dedup l =
            List.sort_uniq Box.compare l = l && List.sort Box.compare l = l
          in
          sorted_dedup reference
          && List.for_all (fun (_, find) -> find g ~volume = reference) finders)
        [ false; true ])

let prop_pop_wrap_canonical =
  (* On a wrapped torus a box spanning a full dimension is reported at
     base 0 in that dimension only — anywhere else would be the same
     node set again. *)
  QCheck.Test.make ~name:"POP reports full-dimension boxes at base 0" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun ((d, seed, _, p), volume) ->
      let g = build_grid (d, seed, true, p) in
      List.for_all
        (fun (b : Box.t) ->
          (b.shape.sx < d.nx || b.base.x = 0)
          && (b.shape.sy < d.ny || b.base.y = 0)
          && (b.shape.sz < d.nz || b.base.z = 0))
        (ref_find Pop g ~volume))

(* ------------------------------------------------------------------ *)
(* Differential properties: random alloc/free sequences, every finder
   flavour (including the incremental cache) against the naive
   reference. The op list shrinks as a list, so a failure minimizes to
   a short mutation sequence; the printer replays it and dumps the
   resulting grid. *)

let arb_dims = QCheck.make ~print:Dims.to_string dims_gen

(* Decode one op against the grid: claim a fully free box, release a
   box we own, or toggle a single node. Mutations go through the cache
   notes, so the cache's incremental table tracks them. *)
let apply_cache_op g cache (bseed, sseed) =
  let d = Grid.dims g in
  let owner = 5 in
  let sx = 1 + (sseed mod d.Dims.nx) in
  let sy = 1 + (sseed / 7 mod d.Dims.ny) in
  let sz = 1 + (sseed / 49 mod d.Dims.nz) in
  let b = Box.make (Coord.of_index d (bseed mod Dims.volume d)) (Shape.make sx sy sz) in
  let cells = Box.indices d b in
  if List.for_all (Grid.is_free g) cells then begin
    Grid.occupy g b ~owner;
    Finder.Cache.note_box cache b
  end
  else if List.for_all (fun i -> Grid.owner g i = Some owner) cells then begin
    Grid.vacate g b ~owner;
    Finder.Cache.note_box cache b
  end
  else begin
    let node = bseed mod Dims.volume d in
    (match Grid.owner g node with
    | None -> Grid.occupy_node g node ~owner
    | Some o -> Grid.vacate_node g node ~owner:o);
    Finder.Cache.note_node cache node
  end

let replay_ops (d, wrap, ops) =
  let g = Grid.create ~wrap d in
  let cache = Finder.Cache.create g in
  List.iter (apply_cache_op g cache) ops;
  (g, cache)

let arb_op_scenario =
  let arb =
    QCheck.(
      quad arb_dims bool
        (small_list (pair (int_range 0 999) (int_range 0 999)))
        (int_range 1 40))
  in
  QCheck.set_print
    (fun (d, wrap, ops, volume) ->
      let g, _ = replay_ops (d, wrap, ops) in
      Format.asprintf "dims=%s wrap=%b volume=%d ops=%s@.grid after replay:@.%a"
        (Dims.to_string d) wrap volume
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ops))
        Grid.pp g)
    arb

let prop_differential_all_finders =
  QCheck.Test.make ~name:"all finders + incremental cache agree after random ops" ~count:150
    arb_op_scenario
    (fun (d, wrap, ops, volume) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let reference = ref_find Naive g ~volume in
      (* Feasibility and exact result agreement, every flavour. *)
      List.for_all (fun (_, find) -> find g ~volume = reference) finders
      && Finder.Cache.find cache ~volume = reference
      && Finder.Cache.find cache ~volume = reference (* memo-hit path *)
      && Finder.Cache.exists_free cache ~volume = (reference <> [])
      (* Validity of every returned partition: free, in-bounds base,
         exact volume. *)
      && List.for_all
           (fun (b : Box.t) ->
             Coord.in_bounds d b.base && Box.volume b = volume && Grid.box_is_free g b)
           reference)

let prop_cache_mfp_agrees =
  QCheck.Test.make ~name:"cached MFP equals uncached MFP after random ops" ~count:150
    arb_op_scenario
    (fun (d, wrap, ops, _volume) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let plain = Mfp.volume g in
      let cached = Mfp.volume ~cache g in
      let again = Mfp.volume ~cache g in
      plain = cached && again = cached
      &&
      match Mfp.box ~cache g with
      | None -> plain = 0
      | Some candidate ->
          let fp = Grid.fingerprint g in
          let after_plain = Mfp.volume_after g candidate in
          let after_cached = Mfp.volume_after ~cache g candidate in
          after_plain = after_cached
          && Grid.fingerprint g = fp (* probes restored the grid *)
          && Mfp.volume ~cache g = plain (* memo survived the probes *))

(* ------------------------------------------------------------------ *)
(* Counted enumeration: Cache.select must agree with the materialised
   list — its uncapped length with the list's length, capped with the
   engine's historical even subsample (transcribed literally below so a
   shared bug cannot hide), a cap of 1 with the head — on arbitrary
   occupancies, both torus modes, non-cubic dims, and the cap >= n /
   cap = 1 / n = 0 edges. Counterexamples shrink to a short op list
   and print the replayed grid, like the differential properties. *)

let cap_oracle cap boxes =
  let n = List.length boxes in
  if n <= cap then boxes
  else
    let arr = Array.of_list boxes in
    List.init cap (fun i -> arr.(i * n / cap))

let prop_count_equals_find_length =
  QCheck.Test.make ~name:"count equals length of find after random ops" ~count:150
    arb_op_scenario
    (fun (d, wrap, ops, volume) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let reference = List.length (ref_find Naive g ~volume) in
      let count () = List.length (Finder.Cache.select cache ~volume ~cap:max_int) in
      count () = reference
      && List.length (cache_select g ~volume ~cap:max_int) = reference
      && count () = reference (* memo-hit path *))

let prop_select_equals_capped_find =
  QCheck.Test.make ~name:"select equals even-capped find after random ops" ~count:150
    (QCheck.pair arb_op_scenario (QCheck.int_range 1 50))
    (fun ((d, wrap, ops, volume), cap) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let sorted = ref_find Naive g ~volume in
      let reference = cap_oracle cap sorted in
      cache_select g ~volume ~cap = reference
      && Finder.Cache.select cache ~volume ~cap = reference
      && Finder.Cache.select cache ~volume ~cap = reference (* memo-hit path *)
      && Finder.Cache.select cache ~volume ~cap:1
         = (match sorted with [] -> [] | b :: _ -> [ b ]))

let test_counted_edges () =
  let d = Dims.make 3 3 4 in
  let g = Grid.create ~wrap:true d in
  (* n = 0: volume 7 has no divisor shape fitting 3x3x4 *)
  let cache = Finder.Cache.create g in
  let select ~volume ~cap = Finder.Cache.select cache ~volume ~cap in
  check_bool "unrealisable volume selects nothing" true (select ~volume:7 ~cap:5 = []);
  check_bool "unrealisable volume, cap 1" true (select ~volume:7 ~cap:1 = []);
  check_bool "volume beyond the machine" true (select ~volume:1000 ~cap:max_int = []);
  let all = ref_find Naive g ~volume:4 in
  let n = List.length all in
  check_int "uncapped length on a live volume" n (List.length (select ~volume:4 ~cap:max_int));
  check_bool "cap >= n is the identity" true (select ~volume:4 ~cap:10_000 = all);
  check_bool "cap = n is the identity" true (select ~volume:4 ~cap:n = all);
  check_bool "cap = 1 is the sorted head" true (select ~volume:4 ~cap:1 = [ List.hd all ]);
  check_bool "cap = 2 takes ranks 0 and n/2" true
    (select ~volume:4 ~cap:2 = [ List.hd all; List.nth all (n / 2) ]);
  check_bool "cap = n-1 walks the sorted order" true
    (select ~volume:4 ~cap:(n - 1) = List.init (n - 1) (fun i -> List.nth all (i * n / (n - 1))))

(* Same agreement above the summary-gating threshold, where the
   counted passes additionally use per-axis feasible-start masks and
   shape gating: the representation the full-scale engine runs on. *)
let test_counted_agrees_at_scale () =
  let d = Dims.make 8 8 16 in
  let g = Grid.create d in
  check_bool "summary gating active at 1024 nodes" true (Finder.summary_gated g);
  let check_all_volumes () =
    List.iter
      (fun v ->
        let sorted = cache_find g ~volume:v in
        check_int
          (Printf.sprintf "gated count agrees at volume %d" v)
          (List.length sorted)
          (List.length (cache_select g ~volume:v ~cap:max_int));
        List.iter
          (fun cap ->
            check_bool
              (Printf.sprintf "gated select agrees at volume %d cap %d" v cap)
              true
              (cache_select g ~volume:v ~cap = cap_oracle cap sorted))
          [ 1; 3; 24 ])
      [ 1; 4; 8; 16; 32 ]
  in
  (* Near-empty: the ribbon fast path covers whole rows. *)
  Grid.occupy g (Box.make (Coord.make 3 2 5) (Shape.make 2 2 2)) ~owner:1;
  check_all_volumes ();
  (* Mostly-occupied: the per-base fallback does the counting. *)
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 8 8 5)) ~owner:2;
  Grid.occupy g (Box.make (Coord.make 0 0 8) (Shape.make 8 8 8)) ~owner:3;
  check_all_volumes ()

(* ------------------------------------------------------------------ *)
(* The summary-gated regime on awkward sizes: machines of at least 512
   nodes (so every scan consults the Summary) whose axes are not
   multiples of the 8-node summary block, so edge blocks are clipped.
   Every proof of absence the summary offers must hold there, in both
   wrap modes. *)

(* Regression: on a wrapped 28-wide axis the 4-wide edge block let a
   box crossing the seam span one block more than the block-window
   bound allowed, so the summary rejected a free 14x1x1 strip. *)
let test_clipped_seam_strip () =
  let d = Dims.make 28 8 8 in
  let g = Grid.create d in
  let strip = Box.make (Coord.make 15 0 0) (Shape.make 14 1 1) in
  let free = Box.indices d strip in
  for node = 0 to Dims.volume d - 1 do
    if not (List.mem node free) then Grid.occupy_node g node ~owner:1
  done;
  check_bool "summary admits the strip" true
    (Summary.shape_feasible (Grid.summary g) ~wrap:true strip.shape);
  let naive = ref_find Naive g ~volume:14 in
  Alcotest.check boxes "naive finds the strip" [ strip ] naive;
  Alcotest.check boxes "cache = naive" naive (cache_find g ~volume:14)

let gated_dims = [| Dims.make 9 8 8; Dims.make 12 7 7; Dims.make 20 8 4; Dims.make 28 8 8 |]

(* A mostly occupied grid with one random free box carved into it —
   wrapping across the seam when the torus wraps — plus a few freed
   nodes elsewhere. *)
type gated_case = {
  g_dims : Dims.t;
  g_wrap : bool;
  g_box : Box.t;
  g_extra : int list;
}

let gated_gen =
  QCheck.Gen.(
    let* d = oneofa gated_dims in
    let* wrap = bool in
    (* Extents lean large and, on a torus, bases lean onto the seam:
       a box crossing it is where a clipped edge block does damage. *)
    let extent n = oneof [ int_range 1 n; int_range ((n + 1) / 2) n ] in
    let base e n =
      if not wrap then int_range 0 (n - e)
      else if e = 1 || e = n then int_range 0 (n - 1)
      else oneof [ int_range 0 (n - 1); int_range (n - e + 1) (n - 1) ]
    in
    let* sx = extent d.nx and* sy = extent d.ny and* sz = extent d.nz in
    let* x = base sx d.nx and* y = base sy d.ny and* z = base sz d.nz in
    let* extra = list_size (int_range 0 4) (int_range 0 (Dims.volume d - 1)) in
    return
      {
        g_dims = d;
        g_wrap = wrap;
        g_box = Box.make (Coord.make x y z) (Shape.make sx sy sz);
        g_extra = extra;
      })

let print_gated c =
  Format.asprintf "dims=%s wrap=%b box=%a extra=[%s]" (Dims.to_string c.g_dims) c.g_wrap Box.pp
    c.g_box
    (String.concat ";" (List.map string_of_int c.g_extra))

let build_gated c =
  let g = Grid.create ~wrap:c.g_wrap c.g_dims in
  let carved = Array.make (Dims.volume c.g_dims) false in
  List.iter (fun node -> carved.(node) <- true) (Box.indices c.g_dims c.g_box @ c.g_extra);
  Array.iteri (fun node free -> if not free then Grid.occupy_node g node ~owner:1) carved;
  g

let prop_gated_proofs_of_absence =
  QCheck.Test.make ~name:"summary proofs hold on clipped sizes" ~count:1000
    (QCheck.make ~print:print_gated gated_gen)
    (fun c ->
      let g = build_gated c in
      let d = c.g_dims and wrap = c.g_wrap in
      let summary = Grid.summary g in
      let volume = Box.volume c.g_box in
      (* Shape_search shares no summary, table or counted walk with the
         production path: the ungated reference. *)
      let reference = ref_find Shape_search g ~volume in
      let shape_sound (s : Shape.t) =
        let of_shape = List.filter (fun (b : Box.t) -> Shape.equal b.shape s) reference in
        let starts_sound axis extent threshold coord =
          let ok = Summary.feasible_starts summary ~wrap ~axis ~extent ~threshold in
          List.for_all (fun (b : Box.t) -> ok.(coord b.base)) of_shape
        in
        (Summary.shape_feasible summary ~wrap s || of_shape = [])
        && starts_sound `X s.sx (s.sy * s.sz) (fun c -> c.Coord.x)
        && starts_sound `Y s.sy (s.sx * s.sz) (fun c -> c.Coord.y)
        && starts_sound `Z s.sz (s.sx * s.sy) (fun c -> c.Coord.z)
      in
      Finder.summary_gated g
      && List.mem (Box.canonical d ~wrap c.g_box) reference
      && List.for_all shape_sound (Shapes.shapes_of_volume d volume)
      && cache_find g ~volume = reference
      && List.length (cache_select g ~volume ~cap:max_int) = List.length reference)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_shared_cache_matches_fresh;
      prop_finders_agree;
      prop_finders_agree_both_wraps;
      prop_pop_wrap_canonical;
      prop_found_boxes_are_free;
      prop_finder_complete;
      prop_mfp_matches_naive;
      prop_mfp_box_is_free_and_maximal;
      prop_exists_free_agrees;
      prop_differential_all_finders;
      prop_cache_mfp_agrees;
      prop_count_equals_find_length;
      prop_select_equals_capped_find;
      prop_gated_proofs_of_absence;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_partition"
    [
      ( "shapes",
        [
          tc "divisors" test_divisors;
          tc "divisors invalid" test_divisors_invalid;
          tc "shapes_of_volume" test_shapes_of_volume;
          tc "infeasible volume" test_shapes_of_volume_infeasible;
          tc "feasible volumes" test_feasible_volumes;
          tc "round_up_volume" test_round_up_volume;
          tc "shapes_desc order" test_shapes_desc_order;
          tc "orientations on non-cubic dims" test_orientations_non_cubic;
        ] );
      ( "finder",
        [
          tc "singletons on empty torus" test_find_empty_torus_singletons;
          tc "full torus" test_find_full_torus;
          tc "respects occupancy" test_find_respects_occupancy;
          tc "wraparound matters" test_find_no_wrap_smaller;
          tc "infeasible volume" test_find_infeasible_volume;
          tc "rounded-up size finds candidates" test_rounded_up_size_candidates;
          tc "exists_free" test_exists_free;
          tc "canonical dedup" test_canonical_dedup_full_dim;
          tc "gating never changes results" test_gated_find_agrees_at_scale;
          tc "counted enumeration edges" test_counted_edges;
          tc "counted agrees above the gate" test_counted_agrees_at_scale;
          tc "clipped seam strip is found" test_clipped_seam_strip;
        ] );
      ( "cache",
        [
          tc "memoisation and invalidation" test_cache_basic;
          tc "self-heals on unnoted mutation" test_cache_self_heals_unnoted;
          tc "differential mode toggle" test_differential_mode_toggle;
          tc "differential sampling" test_differential_sampling;
        ] );
      ( "mfp",
        [
          tc "empty and full" test_mfp_empty_and_full;
          tc "volume_after restores" test_mfp_after_restores_grid;
          tc "loss" test_mfp_loss;
          tc "figure 1 intuition" test_mfp_figure1_intuition;
        ] );
      ("properties", props);
    ]
