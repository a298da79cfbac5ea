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

(* The catalogue as it was first built: every shape in one list,
   sorted by volume descending then shape order, grouped into
   consecutive runs. The bucketed [Shapes] catalogue must match it
   exactly, order within each level included. *)
let reference_catalogue (d : Dims.t) =
  let all = ref [] in
  for sx = 1 to d.nx do
    for sy = 1 to d.ny do
      for sz = 1 to d.nz do
        all := Shape.make sx sy sz :: !all
      done
    done
  done;
  let volumes = List.sort_uniq Int.compare (List.map Shape.volume !all) in
  let desc =
    List.sort
      (fun a b ->
        match Int.compare (Shape.volume b) (Shape.volume a) with 0 -> Shape.compare a b | c -> c)
      !all
  in
  let rec group = function
    | [] -> []
    | s :: _ as l ->
        let v = Shape.volume s in
        let rec take acc = function
          | s' :: rest when Shape.volume s' = v -> take (s' :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let run, rest = take [] l in
        (v, run) :: group rest
  in
  (volumes, desc, group desc)

let check_catalogue d =
  let name = Format.asprintf "%a" Dims.pp d in
  let volumes, desc, levels = reference_catalogue d in
  Alcotest.(check (list int)) (name ^ " feasible_volumes") volumes (Shapes.feasible_volumes d);
  check_bool (name ^ " shapes_desc") true (desc = Shapes.shapes_desc d);
  check_bool (name ^ " levels_desc") true
    (levels = List.map (fun (v, a) -> (v, Array.to_list a)) (Shapes.levels_desc d))

(* Axes of length 1 and 2, odd and prime axes, in random
   combinations, then the three sizes the goldens pin. *)
let test_catalogue_matches_reference () =
  let rng = Bgl_stats.Rng.create ~seed:29 in
  let axes = [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 11; 12; 13; 16; 17 |] in
  let axis () = Bgl_stats.Rng.choose rng axes in
  let sizes =
    [ Dims.make 1 1 1; Dims.make 1 2 1; Dims.make 2 1 7; Dims.make 13 1 2 ]
    @ List.init 40 (fun _ -> Dims.make (axis ()) (axis ()) (axis ()))
    @ [ Dims.bgl; Dims.make 8 8 16; Dims.bgl_full ]
  in
  List.iter check_catalogue sizes

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
           (fun b ->
             List.for_all (fun i -> (Coord.of_index Dims.bgl i).z <> 0) (Box.indices Dims.bgl b))
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

(* The cache's memo hits and misses, read from the obs counters it
   registered against the current registry. *)
let cache_counts reg =
  let value name =
    int_of_float (Bgl_obs.Registry.counter_value (Bgl_obs.Registry.counter reg name))
  in
  (value "bgl_finder_cache_hits_total", value "bgl_finder_cache_misses_total")

let test_cache_basic () =
  let reg = Bgl_obs.Registry.create () in
  Fun.protect ~finally:Bgl_obs.Runtime.reset @@ fun () ->
  Bgl_obs.Runtime.set_registry reg;
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  let direct = ref_find Shape_search g ~volume:8 in
  Alcotest.check boxes "cold query" direct (Finder.Cache.find cache ~volume:8);
  Alcotest.check boxes "memo hit" direct (Finder.Cache.find cache ~volume:8);
  let hits, misses = cache_counts reg in
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses;
  (* A mutation invalidates exactly the stale entries. *)
  let b = List.hd direct in
  Grid.occupy g b ~owner:3;
  Alcotest.check boxes "after occupy" (ref_find Shape_search g ~volume:8)
    (Finder.Cache.find cache ~volume:8);
  (* Occupy+vacate restores the fingerprint, so the memo re-hits. *)
  Grid.vacate g b ~owner:3;
  ignore (Finder.Cache.find cache ~volume:8);
  let probe = Box.make (Coord.make 2 2 2) (Shape.make 1 1 2) in
  Grid.occupy g probe ~owner:4;
  Grid.vacate g probe ~owner:4;
  let hits_before, _ = cache_counts reg in
  Alcotest.check boxes "restored fingerprint re-hits" direct (Finder.Cache.find cache ~volume:8);
  let hits_after, _ = cache_counts reg in
  check_int "hit count grew" (hits_before + 1) hits_after

(* Bit x mod 32 of word x / 32 of row z * ny + y, as [Cache.table]
   documents it. *)
let mask_free masks (d : Dims.t) node =
  let c = Coord.of_index d node in
  let nw = (d.nx + 31) / 32 in
  masks.((((c.z * d.ny) + c.y) * nw) + (c.x / 32)) land (1 lsl (c.x mod 32)) <> 0

let masks_match g cache =
  let masks = Finder.Cache.table cache in
  let d = Grid.dims g in
  List.for_all
    (fun node -> mask_free masks d node = Grid.is_free g node)
    (List.init (Dims.volume d) Fun.id)

let test_cache_self_heals_unnoted () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  ignore (Finder.Cache.find cache ~volume:4);
  ignore (Finder.Cache.select cache ~volume:4 ~cap:3);
  ignore (Finder.Cache.select cache ~volume:128 ~cap:1);
  (* Mutate without telling the cache: the fingerprint change kills the
     memo entries and the version change rebuilds the masks, so no
     query serves the old occupancy. *)
  Grid.occupy_node g 0 ~owner:9;
  Alcotest.check boxes "find follows the mutation"
    (ref_find Shape_search g ~volume:4)
    (Finder.Cache.find cache ~volume:4);
  let all = Array.of_list (ref_find Shape_search g ~volume:4) in
  let n = Array.length all in
  Alcotest.check boxes "select follows the mutation"
    (List.init 3 (fun i -> all.(i * n / 3)))
    (Finder.Cache.select cache ~volume:4 ~cap:3);
  Alcotest.check boxes "a one-box query follows the mutation" []
    (Finder.Cache.select cache ~volume:128 ~cap:1);
  check_int "MFP follows the mutation" 112 (Mfp.volume ~cache g);
  check_bool "masks follow the mutation" true (masks_match g cache);
  Grid.vacate_node g 0 ~owner:9;
  check_bool "masks follow the repair" true (masks_match g cache);
  check_bool "a one-box query follows the repair" true
    (Finder.Cache.select cache ~volume:128 ~cap:1 <> [])

(* Finder queries cross-checked while [f] runs, read from the obs
   counter the differential checker increments. *)
let differential_checks f =
  let reg = Bgl_obs.Registry.create () in
  Fun.protect ~finally:Bgl_obs.Runtime.reset @@ fun () ->
  Bgl_obs.Runtime.set_registry reg;
  f ();
  int_of_float
    (Bgl_obs.Registry.counter_value
       (Bgl_obs.Registry.counter reg "bgl_finder_differential_checks_total"))

let test_differential_mode_toggle () =
  let g = Grid.create Dims.bgl in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 2)) ~owner:1;
  let naive = ref_find Naive g ~volume:8 in
  let queries () =
    let cache = Finder.Cache.create g in
    Alcotest.check boxes "cache query" naive (Finder.Cache.find cache ~volume:8);
    Alcotest.check boxes "select" [ List.hd naive ] (Finder.Cache.select cache ~volume:8 ~cap:1)
  in
  check_int "off by default" 0 (differential_checks queries);
  Finder.set_differential true;
  (* Checked queries still agree on a non-trivial grid. *)
  let checked =
    Fun.protect
      ~finally:(fun () -> Finder.set_differential false)
      (fun () -> differential_checks queries)
  in
  check_bool "enabled" true (checked > 0);
  check_int "restored" 0 (differential_checks queries)

let test_differential_sampling () =
  Alcotest.check_raises "zero sample rejected"
    (Invalid_argument "Finder.set_differential: sample must be >= 1") (fun () ->
      Finder.set_differential ~sample:0 true);
  (* Sampled queries must stay correct whether or not a given one is
     the checked one. *)
  let g = Grid.create Dims.bgl in
  Grid.occupy g (Box.make (Coord.make 1 1 1) (Shape.make 2 2 2)) ~owner:1;
  let queries () =
    let cache = Finder.Cache.create g in
    for _ = 1 to 7 do
      Alcotest.check boxes "sampled cache query" (ref_find Naive g ~volume:8)
        (Finder.Cache.find cache ~volume:8)
    done
  in
  Finder.set_differential ~sample:3 true;
  let checked =
    Fun.protect
      ~finally:(fun () -> Finder.set_differential false)
      (fun () -> differential_checks queries)
  in
  check_bool "sampling counts as enabled" true (checked > 0);
  check_int "restored" 0 (differential_checks queries)

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

(* The summary gate must never change what the finders return, only
   how fast they reject. *)
let test_gated_find_agrees_at_scale () =
  let d = Dims.make 8 8 16 in
  let g = Grid.create d in
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
      Alcotest.check boxes
        (Printf.sprintf "gated one-box query agrees at volume %d" v)
        (List.filteri (fun i _ -> i = 0) naive)
        (cache_select g ~volume:v ~cap:1))
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

(* A whole placement pass of probes only reads: neither the occupancy
   version and fingerprint nor the cache's free-row masks move. *)
let test_mfp_probes_only_read () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  let job = Box.make (Coord.make 1 1 1) (Shape.make 2 2 3) in
  Grid.occupy g job ~owner:1;
  let candidates = Finder.Cache.select cache ~volume:8 ~cap:24 in
  let version = Grid.version g and fp = Grid.fingerprint g in
  let masks = Array.copy (Finder.Cache.table cache) in
  let before = Mfp.volume ~cache g in
  let after = List.map (Mfp.volume_after ~cache g) candidates in
  check_int "24 probes" 24 (List.length after);
  check_bool "some probe shrinks the MFP" true (List.exists (fun v -> v < before) after);
  check_int "version unchanged" version (Grid.version g);
  check_int "fingerprint unchanged" fp (Grid.fingerprint g);
  check_bool "masks untouched" true (masks = Finder.Cache.table cache);
  check_int "MFP unchanged" before (Mfp.volume ~cache g)

let test_mfp_loss () =
  let g = Grid.create Dims.bgl in
  let candidate = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let cache = Finder.Cache.create g in
  let before = Mfp.volume ~cache g in
  check_int "loss" (128 - 96) (before - Mfp.volume_after ~cache g candidate);
  check_int "cached and fresh probes agree" (Mfp.volume_after g candidate)
    (Mfp.volume_after ~cache g candidate);
  check_int "probes kept the memoised volume" before (Mfp.volume ~cache g)

(* The free nodes are two separate boxes, so placing either leaves
   exactly the other: volume_after's free-count bound is met with
   equality and must not cut it off. *)
let test_mfp_probe_bound_exact () =
  let d = Dims.bgl in
  let g = Grid.create d in
  let a = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let b = Box.make (Coord.make 0 0 4) (Shape.make 1 2 2) in
  let kept = Box.indices d a @ Box.indices d b in
  for node = 0 to Dims.volume d - 1 do
    if not (List.mem node kept) then Grid.occupy_node g node ~owner:1
  done;
  check_int "MFP is the larger box" 8 (Mfp.volume g);
  check_int "placing it leaves the smaller" 4 (Mfp.volume_after g a);
  check_int "placing the smaller leaves the larger" 8 (Mfp.volume_after g b)

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

let prop_shared_cache_matches_fresh =
  (* One cache answering an uncapped and a capped query in turn must
     answer like a fresh cache per query: the memo is keyed per
     (volume, cap). *)
  QCheck.Test.make ~name:"a shared cache answers like fresh ones" ~count:100
    QCheck.(pair arb_scenario (int_range 1 30))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      let shared = Finder.Cache.create g in
      Finder.Cache.find shared ~volume = cache_find g ~volume
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
   flavour (including a long-lived cache) against the naive
   reference. The op list shrinks as a list, so a failure minimizes to
   a short mutation sequence; the printer replays it and dumps the
   resulting grid. *)

let arb_dims = QCheck.make ~print:Dims.to_string dims_gen

(* Decode one op against the grid: claim a fully free box, release a
   box we own, or toggle a single node. The cache is told nothing: its
   masks follow the grid's version. *)
let apply_cache_op g (bseed, sseed) =
  let d = Grid.dims g in
  let owner = 5 in
  let sx = 1 + (sseed mod d.Dims.nx) in
  let sy = 1 + (sseed / 7 mod d.Dims.ny) in
  let sz = 1 + (sseed / 49 mod d.Dims.nz) in
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

let replay_ops (d, wrap, ops) =
  let g = Grid.create ~wrap d in
  let cache = Finder.Cache.create g in
  List.iter (apply_cache_op g) ops;
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
          && Grid.fingerprint g = fp (* probes left the grid alone *)
          && Mfp.volume ~cache g = plain (* the index survived the probes *))

(* The paper's 4x4x8 torus, a 12x8x8 machine with an x axis of three
   times four, and small machines with axes of length 1 and 2 and odd
   and prime axes, where a probe's window along an axis wraps past the
   seam or covers the whole axis; both wrapped and not. *)
let mfp_sizes =
  [|
    Dims.bgl;
    Dims.make 12 8 8;
    Dims.make 3 5 7;
    Dims.make 1 6 5;
    Dims.make 2 7 3;
    Dims.make 6 1 2;
  |]

let arb_mfp_scenario =
  QCheck.(
    set_print
      (fun (size, wrap, (p, ops), (seed, cap)) ->
        Printf.sprintf "dims=%s wrap=%b p=%.2f seed=%d cap=%d ops=%s"
          (Dims.to_string mfp_sizes.(size))
          wrap p seed cap
          (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ops)))
      (quad (int_range 0 (Array.length mfp_sizes - 1)) bool
         (pair (float_range 0.3 0.9) (small_list (pair (int_range 0 999) (int_range 0 999))))
         (pair small_int (int_range 1 4))))

let build_mfp_scenario (size, wrap, (p, ops), (seed, cap)) =
  let d = mfp_sizes.(size) in
  let g = build_grid (d, seed, wrap, p) in
  let cache = Finder.Cache.create g in
  List.iter (apply_cache_op g) ops;
  let volumes = Array.of_list (Shapes.feasible_volumes d) in
  let volume = volumes.(seed mod min 20 (Array.length volumes)) in
  (g, cache, Finder.Cache.select cache ~volume ~cap)

let prop_mfp_probes_match_reference =
  QCheck.Test.make ~name:"MFP box, volume and probes match the rescan reference" ~count:300
    arb_mfp_scenario (fun scenario ->
      let g, cache, candidates = build_mfp_scenario scenario in
      (* The reference is the MFP by its definition, the one copy
         differential mode guards with; a probe is the MFP that misses
         the candidate. *)
      let volume_of = Option.fold ~none:0 ~some:Box.volume in
      let expected = Finder.Reference.mfp g in
      Mfp.box ~cache g = expected
      && Mfp.volume ~cache g = volume_of expected
      && List.for_all
           (fun c -> Mfp.volume_after ~cache g c = volume_of (Finder.Reference.mfp ~avoid:c g))
           candidates)

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

(* Same agreement with the summary gate in play: on a 1024-node
   machine the summary rules out more of the shapes the counted passes
   would otherwise erode. *)
let test_counted_agrees_at_scale () =
  let d = Dims.make 8 8 16 in
  let g = Grid.create d in
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
  (* Near-empty: most eroded rows are full. *)
  Grid.occupy g (Box.make (Coord.make 3 2 5) (Shape.make 2 2 2)) ~owner:1;
  check_all_volumes ();
  (* Mostly-occupied: rows hold short runs or none. *)
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 8 8 5)) ~owner:2;
  Grid.occupy g (Box.make (Coord.make 0 0 8) (Shape.make 8 8 8)) ~owner:3;
  check_all_volumes ()

(* ------------------------------------------------------------------ *)
(* The summary gate on awkward sizes: every scan consults the Summary,
   so every proof of absence it offers must hold at every size — the
   paper's 4x4x8 cell, odd and prime axes, axes of length 1 and 2 —
   in both wrap modes. *)

(* A free 14x1x1 strip crossing the seam of a wrapped 28-wide axis:
   the summary must find its slab run by wrapping round the axis. *)
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

let gated_dims =
  [|
    Dims.make 9 8 8;
    Dims.make 12 7 7;
    Dims.make 20 8 4;
    Dims.make 28 8 8;
    Dims.make 4 4 8;
    Dims.make 3 5 7;
    Dims.make 1 6 5;
    Dims.make 2 7 3;
    Dims.make 6 1 2;
  |]

(* A mostly occupied grid with one random free box carved into it —
   wrapping across the seam when the torus wraps — plus a few freed
   nodes elsewhere. *)
type gated_case = {
  g_dims : Dims.t;
  g_wrap : bool;
  g_box : Box.t;
  g_extra : int list;
}

let carved_gen (dims : Dims.t array) =
  QCheck.Gen.(
    let* d = oneofa dims in
    let* wrap = bool in
    (* Extents lean large, up to a whole axis, and on a torus bases
       lean onto the seam: a box crossing it needs the summary's slab
       runs to wrap. *)
    let extent n = oneof [ int_range 1 n; int_range ((n + 1) / 2) n; return n ] in
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

let gated_gen = carved_gen gated_dims

let print_gated c =
  Format.asprintf "dims=%s wrap=%b box=%a extra=[%s]" (Dims.to_string c.g_dims) c.g_wrap Box.pp
    c.g_box
    (String.concat ";" (List.map string_of_int c.g_extra))

(* Every node outside the carved box and extra nodes is occupied with
   probability [busy]: by default all of them. *)
let build_gated ?(busy = 1.) ?(seed = 0) c =
  let rng = Bgl_stats.Rng.create ~seed in
  let g = Grid.create ~wrap:c.g_wrap c.g_dims in
  let carved = Array.make (Dims.volume c.g_dims) false in
  List.iter (fun node -> carved.(node) <- true) (Box.indices c.g_dims c.g_box @ c.g_extra);
  Array.iteri
    (fun node free ->
      if (not free) && Bgl_stats.Rng.unit_float rng < busy then Grid.occupy_node g node ~owner:1)
    carved;
  g

let prop_gated_proofs_of_absence =
  QCheck.Test.make ~name:"summary proofs hold at every size" ~count:1000
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
        Summary.shape_feasible summary ~wrap s
        || not (List.exists (fun (b : Box.t) -> Shape.equal b.shape s) reference)
      in
      List.mem (Box.canonical d ~wrap c.g_box) reference
      && List.for_all shape_sound (Shapes.shapes_of_volume d volume)
      && cache_find g ~volume = reference
      && List.length (cache_select g ~volume ~cap:max_int) = List.length reference)

(* ------------------------------------------------------------------ *)
(* The free-row kernel against a summed-area reference: the awkward
   sizes above plus rows just under, at and over one 32-bit word (x
   extents 31, 32 and 33) and of two and three words (40, 64, 65 and
   96), where a box leaning onto the x seam of a torus wraps across a
   word boundary, and random background occupancy instead of a full
   machine, with and without wraparound. Every query kind must equal a
   scan of a freshly built Prefix table over every base of every
   shape. *)

let kernel_dims =
  Array.append gated_dims
    [|
      Dims.make 33 4 4;
      Dims.make 40 3 5;
      Dims.make 64 3 3;
      Dims.make 65 2 4;
      Dims.make 33 2 2;
      Dims.make 31 4 4;
      Dims.make 32 3 5;
      Dims.make 96 2 3;
    |]

type kernel_case = { k_carve : gated_case; k_busy : float; k_seed : int }

let kernel_gen =
  QCheck.Gen.(
    let* carve = carved_gen kernel_dims in
    let* busy = oneofl [ 0.; 0.1; 0.4; 1. ] and* seed = small_nat in
    return { k_carve = carve; k_busy = busy; k_seed = seed })

let print_kernel k = Printf.sprintf "%s busy=%.1f seed=%d" (print_gated k.k_carve) k.k_busy k.k_seed

(* [f i box] for every free box of [shapes.(i)], shapes in array order,
   bases in [iter_bases] order, judged by the summed-area table. *)
let prefix_scan g =
  let table = Prefix.build g in
  let d = Grid.dims g and wrap = Grid.wrap g in
  fun shapes ~f ->
    Array.iteri
      (fun i s ->
        Finder.iter_bases d ~wrap s ~f:(fun x y z ->
            let b = Box.make (Coord.make x y z) s in
            if Prefix.box_is_free table b then f i b))
      shapes

(* Every free box of [volume], sorted, by the summed-area scan. *)
let prefix_find g ~volume =
  let acc = ref [] in
  prefix_scan g (Array.of_list (Shapes.shapes_of_volume (Grid.dims g) volume)) ~f:(fun _ b ->
      acc := b :: !acc);
  List.sort Box.compare !acc

let prop_kernel_matches_prefix =
  QCheck.Test.make ~name:"free-row kernel equals the summed-area scan" ~count:200
    (QCheck.make ~print:print_kernel kernel_gen)
    (fun k ->
      let g = build_gated ~busy:k.k_busy ~seed:k.k_seed k.k_carve in
      let d = Grid.dims g in
      let scan = prefix_scan g in
      let cache = Finder.Cache.create g in
      let agrees volume =
        let reference = prefix_find g ~volume in
        Finder.Cache.find cache ~volume = reference
        && List.for_all
             (fun cap -> Finder.Cache.select cache ~volume ~cap = cap_oracle cap reference)
             [ 1; 2; 7; 24; max_int ]
      in
      let level_agrees (level : Finder.Cache.mfp_level) =
        let acc = ref [] in
        scan level.shapes ~f:(fun i (b : Box.t) ->
            acc := b.base.z :: b.base.y :: b.base.x :: i :: !acc);
        Lazy.force level.boxes = Array.of_list (List.rev !acc)
      in
      let volumes = Array.of_list (Shapes.feasible_volumes d) in
      let carved = Box.volume k.k_carve.g_box in
      (* The levels an MFP scan reads first, and the carved box's. *)
      let levels =
        List.filter (fun (l : Finder.Cache.mfp_level) -> l.volume <= Grid.free_count g)
          (Finder.Cache.mfp_levels cache)
      in
      agrees carved
      && agrees volumes.(k.k_seed mod Array.length volumes)
      && List.for_all level_agrees
           (List.filteri (fun i (l : Finder.Cache.mfp_level) -> i < 4 || l.volume = carved) levels))

(* ------------------------------------------------------------------ *)
(* The what-if scratch against a ghost grid: a grid with some jobs and
   some down nodes gets a random sequence of releases (of its jobs'
   boxes and of arbitrary ones) and claims in its cache's scratch, and
   the same node edits on a ghost grid. After every edit the scratch's
   free count is the ghost's, and [first_free] is the first box of
   [select ~cap:1] on a fresh cache of the ghost, whose uncapped
   answer is in turn the summed-area scan's. Row lengths 31 to 65 put
   box edges on both sides of a 32-bit word boundary; the real grid
   must never move. *)

let what_if_dims =
  [|
    Dims.make 31 2 3;
    Dims.make 32 3 2;
    Dims.make 33 2 2;
    Dims.make 63 2 2;
    Dims.make 65 2 3;
    Dims.make 9 9 9;
  |]

type what_if_case = { w_dims : Dims.t; w_wrap : bool; w_down : float; w_ops : int; w_seed : int }

let what_if_gen =
  QCheck.Gen.(
    let* d = oneofa what_if_dims and* wrap = bool and* down = oneofl [ 0.; 0.05; 0.3 ] in
    let* ops = int_range 1 10 and* seed = small_nat in
    return { w_dims = d; w_wrap = wrap; w_down = down; w_ops = ops; w_seed = seed })

let print_what_if w =
  Printf.sprintf "dims=%s wrap=%b down=%.2f ops=%d seed=%d" (Dims.to_string w.w_dims) w.w_wrap
    w.w_down w.w_ops w.w_seed

(* A random canonical box: extents of one node, a few, any or the whole
   axis; bases anywhere the wrap mode allows. *)
let random_box rng (d : Dims.t) ~wrap =
  let pick n = Bgl_stats.Rng.int rng n in
  let extent n = match pick 4 with 0 -> 1 | 1 -> min n (1 + pick 4) | 2 -> 1 + pick n | _ -> n in
  let base e n = if wrap then pick n else pick (n - e + 1) in
  let sx = extent d.nx and sy = extent d.ny and sz = extent d.nz in
  Box.canonical d ~wrap
    (Box.make (Coord.make (base sx d.nx) (base sy d.ny) (base sz d.nz)) (Shape.make sx sy sz))

(* [f node owner] for every owned node of [g]. *)
let iter_owned g f =
  for node = 0 to Grid.volume g - 1 do
    Option.iter (f node) (Grid.owner g node)
  done

let prop_what_if_matches_ghost =
  QCheck.Test.make ~name:"what-if first_free equals select on a ghost grid" ~count:300
    (QCheck.make ~print:print_what_if what_if_gen)
    (fun w ->
      let d = w.w_dims and wrap = w.w_wrap in
      let rng = Bgl_stats.Rng.create ~seed:w.w_seed in
      let g = Grid.create ~wrap d in
      for node = 0 to Dims.volume d - 1 do
        if Bgl_stats.Rng.unit_float rng < w.w_down then Grid.occupy_node g node ~owner:Grid.down_owner
      done;
      let jobs =
        List.filter_map
          (fun owner ->
            let b = random_box rng d ~wrap in
            if Grid.box_is_free g b then begin
              Grid.occupy g b ~owner;
              Some b
            end
            else None)
          (List.init 6 Fun.id)
      in
      let version = Grid.version g and fingerprint = Grid.fingerprint g in
      let cache = Finder.Cache.create g in
      let ghost = Grid.create ~wrap d in
      iter_owned g (fun node _ -> Grid.occupy_node ghost node ~owner:1);
      let scratch = Finder.Cache.what_if cache in
      let volumes = Array.of_list (Shapes.feasible_volumes d) in
      let agrees box =
        let ghost_cache = Finder.Cache.create ghost in
        Finder.Cache.free_nodes scratch = Grid.free_count ghost
        && List.for_all
             (fun volume ->
               Finder.Cache.first_free scratch ~volume
               = List.nth_opt (Finder.Cache.select ghost_cache ~volume ~cap:1) 0
               && Finder.Cache.find ghost_cache ~volume = prefix_find ghost ~volume)
             [ 1; Box.volume box; volumes.(Bgl_stats.Rng.int rng (Array.length volumes)) ]
      in
      let step () =
        let box =
          match (jobs, Bgl_stats.Rng.int rng 3) with
          | _ :: _, 0 -> List.nth jobs (Bgl_stats.Rng.int rng (List.length jobs))
          | _ -> random_box rng d ~wrap
        in
        let nodes = Box.indices d box in
        if Bgl_stats.Rng.int rng 3 = 0 then begin
          Finder.Cache.claim scratch box;
          List.iter (fun n -> if Grid.is_free ghost n then Grid.occupy_node ghost n ~owner:1) nodes
        end
        else begin
          Finder.Cache.release scratch box;
          List.iter (fun n -> if not (Grid.is_free ghost n) then Grid.vacate_node ghost n ~owner:1) nodes
        end;
        agrees box
      in
      let rec run k = k = 0 || (step () && run (k - 1)) in
      run w.w_ops
      && Grid.version g = version
      && Grid.fingerprint g = fingerprint
      && Finder.Cache.select cache ~volume:1 ~cap:1
         = Finder.Cache.select (Finder.Cache.create g) ~volume:1 ~cap:1)

(* ------------------------------------------------------------------ *)
(* The x-base tables against fresh caches and the reference: one
   long-lived cache follows a grid through random occupy, vacate and
   ABA steps (a box occupied and vacated again, so the fingerprint
   returns but the version moves), with select, find, Mfp.volume,
   Mfp.volume_after and a what-if first_free interleaved between
   them. Extents 1-9 and 12 put axis lengths on both sides of each
   doubling step of the log-step erosion, windows equal to the axis
   and remainder steps; wraparound makes some steps cyclic and in
   place. Every answer must equal a fresh cache's and the reference
   finder's, so a table left stale by an earlier occupancy shows. *)

let table_extents = [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 12 |]

type table_case = { t_dims : Dims.t; t_wrap : bool; t_ops : int; t_seed : int }

let table_gen =
  QCheck.Gen.(
    let extent = oneofa table_extents in
    let* nx = extent and* ny = extent and* nz = extent and* wrap = bool in
    let* ops = int_range 1 12 and* seed = small_nat in
    return { t_dims = Dims.make nx ny nz; t_wrap = wrap; t_ops = ops; t_seed = seed })

let print_table_case t =
  Printf.sprintf "dims=%s wrap=%b ops=%d seed=%d" (Dims.to_string t.t_dims) t.t_wrap t.t_ops
    t.t_seed

let prop_tables_follow_occupancy =
  QCheck.Test.make ~name:"x-base tables follow the occupancy" ~count:300
    (QCheck.make ~print:print_table_case table_gen)
    (fun t ->
      let d = t.t_dims and wrap = t.t_wrap in
      let rng = Bgl_stats.Rng.create ~seed:t.t_seed in
      let pick n = Bgl_stats.Rng.int rng n in
      let g = Grid.create ~wrap d in
      let cache = Finder.Cache.create g in
      let volumes = Array.of_list (Shapes.feasible_volumes d) in
      let live = ref [] and owner = ref 0 in
      let occupy_random () =
        let b = random_box rng d ~wrap in
        if Grid.box_is_free g b then begin
          incr owner;
          Grid.occupy g b ~owner:!owner;
          Some (b, !owner)
        end
        else None
      in
      let mutate () =
        match (pick 3, !live) with
        | 0, (_ :: _ as boxes) ->
            let ((b, o) as job) = List.nth boxes (pick (List.length boxes)) in
            Grid.vacate g b ~owner:o;
            live := List.filter (( != ) job) boxes
        | 1, _ -> Option.iter (fun (b, o) -> Grid.vacate g b ~owner:o) (occupy_random ())
        | _ -> Option.iter (fun job -> live := job :: !live) (occupy_random ())
      in
      let volume () = volumes.(pick (Array.length volumes)) in
      let query () =
        let fresh = Finder.Cache.create g in
        match pick 5 with
        | 0 ->
            let volume = volume () and cap = [| 1; 2; 7; max_int |].(pick 4) in
            let got = Finder.Cache.select cache ~volume ~cap in
            got = Finder.Cache.select fresh ~volume ~cap
            && got = cap_oracle cap (Finder.Reference.find Finder.Reference.Shape_search g ~volume)
        | 1 ->
            let volume = volume () in
            let got = Finder.Cache.find cache ~volume in
            got = Finder.Cache.find fresh ~volume
            && got = Finder.Reference.find Finder.Reference.Shape_search g ~volume
        | 2 ->
            let got = Mfp.box ~cache g in
            got = Mfp.box ~cache:fresh g
            && Mfp.volume ~cache g = Mfp.volume ~cache:fresh g
            && got = Finder.Reference.mfp g
        | 3 -> (
            match Finder.Cache.find cache ~volume:(volume ()) with
            | [] -> true
            | boxes ->
                let c = List.nth boxes (pick (List.length boxes)) in
                let got = Mfp.volume_after ~cache g c in
                got = Mfp.volume_after ~cache:fresh g c
                && got = Option.fold ~none:0 ~some:Box.volume (Finder.Reference.mfp ~avoid:c g))
        | _ ->
            (* Release one running box, or none, in both scratches. *)
            let released =
              match !live with [] -> None | boxes -> Some (List.nth boxes (pick (List.length boxes)))
            in
            let s = Finder.Cache.what_if cache and s' = Finder.Cache.what_if fresh in
            let ghost = Grid.create ~wrap d in
            iter_owned g (fun node o ->
                if not (Option.fold ~none:false ~some:(fun (_, r) -> r = o) released) then
                  Grid.occupy_node ghost node ~owner:1);
            Option.iter
              (fun (b, _) ->
                Finder.Cache.release s b;
                Finder.Cache.release s' b)
              released;
            let volume = volume () in
            let got = Finder.Cache.first_free s ~volume in
            got = Finder.Cache.first_free s' ~volume
            && got
               = List.nth_opt (Finder.Reference.find Finder.Reference.Shape_search ghost ~volume) 0
      in
      let rec run k = k = 0 || (mutate (); query () && query () && run (k - 1)) in
      query () && run t.t_ops)

(* The word-parallel x-erosion every query reads ([row_bases]) on rows
   of two and three words: every window width around a word boundary
   (sx in 1, 31, 32, 33, 63, 64, 65) on x extents 64, 65 and 96,
   wrapped and not. The erosion shifts by up to 64 bits, so shifts of
   a whole word and more are exercised. A free run [nx - 20, nx) +
   [0, 41) crosses the seam and the word boundaries at 32 and (for 65
   and 96) beyond, and the background occupancy keeps other rows
   partial. Volumes 4 * sx hold shapes of depths 1, 2 and 4 and
   heights 1 and 2, so each width's x-base table is eroded along z and
   y by one and two log-steps, and is read uneroded. find, select and the MFP levels an MFP query forces must all equal
   the summed-area scan. *)
let test_count_pass_wide_rows () =
  List.iter
    (fun (nx, wrap, busy) ->
      let d = Dims.make nx 2 4 in
      let g = Grid.create ~wrap d in
      let rng = Bgl_stats.Rng.create ~seed:nx in
      let in_run x = x >= nx - 20 || x <= 40 in
      for node = 0 to Dims.volume d - 1 do
        if (not (in_run (node mod nx))) && Bgl_stats.Rng.unit_float rng < busy then
          Grid.occupy_node g node ~owner:1
      done;
      let scan = prefix_scan g in
      let cache = Finder.Cache.create g in
      List.iter
        (fun volume ->
          let reference = prefix_find g ~volume in
          let label what =
            Printf.sprintf "%s: %dx2x4 wrap=%b busy=%.2f volume=%d" what nx wrap busy volume
          in
          Alcotest.check boxes (label "find") reference (Finder.Cache.find cache ~volume);
          Alcotest.check boxes (label "uncapped select") reference
            (Finder.Cache.select cache ~volume ~cap:max_int);
          List.iter
            (fun cap ->
              Alcotest.check boxes (label (Printf.sprintf "select cap %d" cap))
                (cap_oracle cap reference)
                (Finder.Cache.select cache ~volume ~cap))
            [ 1; 7; 24 ])
        (List.concat_map
           (fun sx -> if sx <= nx then [ sx; 4 * sx ] else [])
           [ 1; 31; 32; 33; 63; 64; 65 ]);
      (* The MFP scan and its probes force levels from the top down;
         every level forced is checked whole. *)
      Option.iter
        (fun b -> ignore (Mfp.volume_after ~cache g (Box.make b.Box.base (Shape.make 1 1 1))))
        (Mfp.box ~cache g);
      List.iter
        (fun (level : Finder.Cache.mfp_level) ->
          if Lazy.is_val level.boxes then begin
            let acc = ref [] in
            scan level.shapes ~f:(fun i (b : Box.t) ->
                acc := b.base.z :: b.base.y :: b.base.x :: i :: !acc);
            Alcotest.(check (array int))
              (Printf.sprintf "MFP level %d: %dx2x4 wrap=%b busy=%.2f" level.volume nx wrap busy)
              (Array.of_list (List.rev !acc))
              (Lazy.force level.boxes)
          end)
        (Finder.Cache.mfp_levels cache))
    (List.concat_map
       (fun nx ->
         List.concat_map (fun wrap -> List.map (fun busy -> (nx, wrap, busy)) [ 0.02; 0.15; 0.5 ])
           [ true; false ])
       [ 64; 65; 96 ])

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
      prop_differential_all_finders;
      prop_cache_mfp_agrees;
      prop_mfp_probes_match_reference;
      prop_count_equals_find_length;
      prop_select_equals_capped_find;
      prop_gated_proofs_of_absence;
      prop_kernel_matches_prefix;
      prop_what_if_matches_ghost;
      prop_tables_follow_occupancy;
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
          tc "catalogue equals the sorted reference" test_catalogue_matches_reference;
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
          tc "canonical dedup" test_canonical_dedup_full_dim;
          tc "gating never changes results" test_gated_find_agrees_at_scale;
          tc "counted enumeration edges" test_counted_edges;
          tc "counted agrees above the gate" test_counted_agrees_at_scale;
          tc "clipped seam strip is found" test_clipped_seam_strip;
          tc "count pass on multi-word rows" test_count_pass_wide_rows;
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
          tc "probes only read" test_mfp_probes_only_read;
          tc "loss" test_mfp_loss;
          tc "figure 1 intuition" test_mfp_figure1_intuition;
          tc "probe bound met exactly" test_mfp_probe_bound_exact;
        ] );
      ("properties", props);
    ]
