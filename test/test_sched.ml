(* Tests for the placement policies (Section 5 of the paper). *)

open Bgl_torus
open Bgl_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let box_t = Alcotest.testable Box.pp Box.equal
let member dims box c = List.mem (Coord.index dims c) (Box.indices dims box)

let job ?(size = 4) ?(run_time = 1000.) ?(estimate = 1000.) () =
  { Bgl_trace.Job_log.id = 0; arrival = 0.; size; run_time; estimate }

let index_of events =
  Bgl_predict.Failure_index.of_log
    (Bgl_trace.Failure_log.make ~name:"t"
       (List.map (fun (time, node) -> { Bgl_trace.Failure_log.time; node }) events))

let candidates_for grid volume =
  Bgl_partition.Finder.Cache.find (Bgl_partition.Finder.Cache.create grid) ~volume

(* The L_MFP term computed directly: MFP volume before minus after,
   each on a fresh cache rather than the context's shared one. *)
let direct_loss grid candidate =
  Bgl_partition.Mfp.volume grid - Bgl_partition.Mfp.volume_after grid candidate

let choose policy grid ?(j = job ()) volume =
  let ctx = Policy.make_ctx ~now:0. grid in
  policy.Policy.choose ctx ~job:j ~volume ~candidates:(candidates_for grid volume)

(* ------------------------------------------------------------------ *)

let test_first_fit_picks_first () =
  let grid = Grid.create Dims.bgl in
  let candidates = candidates_for grid 8 in
  let ctx = Policy.make_ctx ~now:0. grid in
  Alcotest.(check (option box_t))
    "first candidate" (Some (List.hd candidates))
    (Bgl_sched.Placement.first_fit.choose ctx ~job:(job ()) ~volume:8 ~candidates)

let test_empty_candidates () =
  let grid = Grid.create Dims.bgl in
  let ctx = Policy.make_ctx ~now:0. grid in
  List.iter
    (fun (policy : Policy.t) ->
      Alcotest.(check (option box_t)) (policy.name ^ " none") None
        (policy.choose ctx ~job:(job ()) ~volume:8 ~candidates:[]))
    [
      Bgl_sched.Placement.first_fit;
      Bgl_sched.Placement.mfp;
      Bgl_sched.Placement.balancing ~predictor:Bgl_predict.Predictor.null ();
      Bgl_sched.Placement.tie_breaking ~predictor:Bgl_predict.Predictor.null ();
    ]

let test_mfp_loss_shortcut_agrees () =
  (* mfp_loss through the context's shared MFP level index must equal
     the direct loss computation for every candidate. *)
  let rng = Bgl_stats.Rng.create ~seed:5 in
  for _ = 1 to 20 do
    let grid = Grid.create Dims.bgl in
    for node = 0 to 127 do
      if Bgl_stats.Rng.unit_float rng < 0.5 then Grid.occupy_node grid node ~owner:1
    done;
    let ctx = Policy.make_ctx ~now:0. grid in
    List.iter
      (fun candidate ->
        check_int "shortcut = direct"
          (direct_loss grid candidate)
          (Bgl_sched.Placement.mfp_loss ctx candidate))
      (candidates_for grid 4)
  done

let test_policies_only_read_grid () =
  let grid = Grid.create Dims.bgl in
  let rng = Bgl_stats.Rng.create ~seed:9 in
  for node = 0 to 127 do
    if Bgl_stats.Rng.unit_float rng < 0.3 then Grid.occupy_node grid node ~owner:1
  done;
  let version = Grid.version grid in
  let predictor = Bgl_predict.Predictor.oracle (index_of [ (10., 0); (20., 37) ]) in
  List.iter
    (fun (policy : Policy.t) ->
      ignore (choose policy grid 4);
      check_int (policy.name ^ " left the grid alone") version (Grid.version grid))
    Bgl_sched.Placement.
      [
        first_fit;
        mfp;
        balancing ~predictor ();
        balancing ~decline_threshold:0. ~predictor ();
        tie_breaking ~predictor ();
        random ~seed:3;
        safest ~predictor ();
      ]

let test_mfp_minimises_loss () =
  (* Figure 1 setup: the MFP policy must pick a placement with minimal
     MFP loss. *)
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 0 0 0) (Shape.make 2 2 1)) ~owner:1;
  let candidates = candidates_for grid 2 in
  let ctx = Policy.make_ctx ~now:0. grid in
  match Bgl_sched.Placement.mfp.choose ctx ~job:(job ~size:2 ()) ~volume:2 ~candidates with
  | None -> Alcotest.fail "no placement"
  | Some best ->
      let best_loss = direct_loss grid best in
      List.iter
        (fun c -> check_bool "no candidate beats it" true (direct_loss grid c >= best_loss))
        candidates

let test_balancing_equals_mfp_without_prediction () =
  (* With the null predictor, E_loss = L_MFP, so balancing must agree
     with the MFP policy on every grid. *)
  let rng = Bgl_stats.Rng.create ~seed:6 in
  let balancing = Bgl_sched.Placement.balancing ~predictor:Bgl_predict.Predictor.null () in
  for _ = 1 to 20 do
    let grid = Grid.create Dims.bgl in
    for node = 0 to 127 do
      if Bgl_stats.Rng.unit_float rng < 0.4 then Grid.occupy_node grid node ~owner:1
    done;
    Alcotest.(check (option box_t))
      "same choice"
      (choose Bgl_sched.Placement.mfp grid 8)
      (choose balancing grid 8)
  done

let test_balancing_avoids_doomed_when_tied () =
  (* Two symmetric columns, one doomed: even tiny confidence flips the
     choice to the stable one. *)
  let dims = Dims.make 4 2 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 1 0 0) (Shape.make 2 2 1)) ~owner:1;
  let idx = index_of [ (500., Coord.index dims (Coord.make 0 0 0)) ] in
  let balancing =
    Bgl_sched.Placement.balancing ~predictor:(Bgl_predict.Predictor.balancing ~confidence:0.1 idx) ()
  in
  match choose balancing grid ~j:(job ~size:2 ()) 2 with
  | None -> Alcotest.fail "no placement"
  | Some box ->
      check_bool "avoids x=0 column" false (member dims box (Coord.make 0 0 0))

let test_balancing_confidence_crossover () =
  (* The walkthrough scenario: low confidence accepts the doomed
     min-MFP-loss column, high confidence pays one MFP unit for
     stability. *)
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 0 0 0) (Shape.make 2 4 1)) ~owner:0;
  Grid.occupy grid (Box.make (Coord.make 3 3 0) (Shape.make 1 1 1)) ~owner:1;
  let doomed = Coord.make 2 0 0 in
  let idx = index_of [ (500., Coord.index dims doomed) ] in
  let pick confidence =
    let balancing =
      Bgl_sched.Placement.balancing ~predictor:(Bgl_predict.Predictor.balancing ~confidence idx) ()
    in
    Option.get (choose balancing grid ~j:(job ~size:4 ()) 4)
  in
  check_bool "low confidence takes the doomed column" true (member dims (pick 0.1) doomed);
  check_bool "high confidence pays for stability" false (member dims (pick 0.9) doomed)

let test_balancing_decline_threshold () =
  let dims = Dims.make 2 1 1 in
  let grid = Grid.create ~wrap:false dims in
  let idx = index_of [ (500., 0); (500., 1) ] in
  (* Every candidate is doomed with probability 1: a threshold below 1
     makes the policy decline. *)
  let balancing =
    Bgl_sched.Placement.balancing ~decline_threshold:0.5
      ~predictor:(Bgl_predict.Predictor.balancing ~confidence:1.0 idx)
      ()
  in
  Alcotest.(check (option box_t)) "declines" None (choose balancing grid ~j:(job ~size:2 ()) 2);
  let permissive =
    Bgl_sched.Placement.balancing
      ~predictor:(Bgl_predict.Predictor.balancing ~confidence:1.0 idx)
      ()
  in
  check_bool "without threshold it places" true (choose permissive grid ~j:(job ~size:2 ()) 2 <> None)

let test_balancing_combine_rules_differ () =
  (* One candidate with two moderately doomed nodes vs one with a
     single highly doomed node: product and max rank them
     differently. *)
  let dims = Dims.make 2 1 1 in
  let grid = Grid.create ~wrap:false dims in
  let p =
    {
      Bgl_predict.Predictor.name = "synthetic";
      node_prob =
        (fun ~node ~now:_ ~horizon:_ -> if node = 0 then 0.5 else 0.45);
      node_will_fail = (fun ~node:_ ~now:_ ~horizon:_ -> true);
    }
  in
  (* candidates are the two single cells; E_loss = P_f * 1 (no MFP
     difference on a line of 2? occupying either cell leaves MFP 1, so
     L_MFP ties) -> product picks node 1 (0.45), max picks node 1 too...
     use partition_prob directly to check the formulas instead. *)
  ignore grid;
  let prob combine nodes =
    Bgl_predict.Predictor.partition_prob p ~combine ~nodes ~now:0. ~horizon:1.
  in
  check_bool "product compounds" true (abs_float (prob `Product [ 0; 1 ] -. 0.725) < 1e-9);
  check_bool "max takes the worst" true (abs_float (prob `Max [ 0; 1 ] -. 0.5) < 1e-9)

let test_tie_breaking_prefers_safe_tie () =
  let dims = Dims.make 4 2 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 1 0 0) (Shape.make 2 2 1)) ~owner:1;
  let idx = index_of [ (100., Coord.index dims (Coord.make 0 0 0)) ] in
  let tb =
    Bgl_sched.Placement.tie_breaking
      ~predictor:(Bgl_predict.Predictor.tie_breaking ~accuracy:1.0 ~seed:1 idx)
      ()
  in
  match choose tb grid ~j:(job ~size:2 ~run_time:600. ~estimate:600. ()) 2 with
  | None -> Alcotest.fail "no placement"
  | Some box -> check_bool "picks the safe column" false (member dims box (Coord.make 0 0 0))

let test_tie_breaking_all_doomed_still_places () =
  let dims = Dims.make 2 1 1 in
  let grid = Grid.create ~wrap:false dims in
  let idx = index_of [ (100., 0); (100., 1) ] in
  let tb =
    Bgl_sched.Placement.tie_breaking
      ~predictor:(Bgl_predict.Predictor.tie_breaking ~accuracy:1.0 ~seed:1 idx)
      ()
  in
  check_bool "arbitrary choice when every candidate is doomed" true
    (choose tb grid ~j:(job ~size:1 ~run_time:600. ~estimate:600. ()) 1 <> None)

let test_tie_breaking_ignores_non_tied_safe () =
  (* A safe candidate with a worse MFP loss must not be preferred: the
     tie-breaking algorithm only consults the predictor among ties. *)
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 0 0 0) (Shape.make 2 4 1)) ~owner:0;
  Grid.occupy grid (Box.make (Coord.make 3 3 0) (Shape.make 1 1 1)) ~owner:1;
  (* Unique min-loss candidate is the x=2 column, and it is doomed. *)
  let idx = index_of [ (500., Coord.index dims (Coord.make 2 0 0)) ] in
  let tb =
    Bgl_sched.Placement.tie_breaking
      ~predictor:(Bgl_predict.Predictor.tie_breaking ~accuracy:1.0 ~seed:1 idx)
      ()
  in
  match choose tb grid ~j:(job ~size:4 ()) 4 with
  | None -> Alcotest.fail "no placement"
  | Some box ->
      check_bool "still takes the min-loss doomed column" true
        (member dims box (Coord.make 2 0 0))

let test_random_policy () =
  let grid = Grid.create Dims.bgl in
  let candidates = candidates_for grid 8 in
  let ctx = Policy.make_ctx ~now:0. grid in
  let pick seed =
    Bgl_sched.Placement.(random ~seed).choose ctx ~job:(job ()) ~volume:8 ~candidates
  in
  (match pick 1 with
  | Some b -> check_bool "member of candidates" true (List.exists (Box.equal b) candidates)
  | None -> Alcotest.fail "no placement");
  Alcotest.(check (option box_t)) "deterministic in seed" (pick 1) (pick 1);
  (* across many seeds, more than one distinct candidate gets picked *)
  let distinct =
    List.init 20 pick |> List.filter_map Fun.id |> List.sort_uniq Box.compare |> List.length
  in
  check_bool "spreads over candidates" true (distinct > 1)

let test_safest_policy () =
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 0 0 0) (Shape.make 2 4 1)) ~owner:0;
  Grid.occupy grid (Box.make (Coord.make 3 3 0) (Shape.make 1 1 1)) ~owner:1;
  (* Same setup as the balancing crossover: the min-MFP-loss column is
     doomed. Safest must avoid it at ANY stake, unlike balancing at low
     confidence. *)
  let doomed = Coord.make 2 0 0 in
  let idx = index_of [ (500., Coord.index dims doomed) ] in
  let safest =
    Bgl_sched.Placement.safest ~predictor:(Bgl_predict.Predictor.balancing ~confidence:0.1 idx) ()
  in
  match choose safest grid ~j:(job ~size:4 ()) 4 with
  | None -> Alcotest.fail "no placement"
  | Some box -> check_bool "avoids doomed even at low confidence" false (member dims box doomed)

(* ------------------------------------------------------------------ *)
(* Orientation handling: partitions are rectangular and the finder
   enumerates every rotation of every divisor shape, so the policies
   must cope with candidate lists mixing orientations — and pick the
   right one when occupancy or MFP loss singles one out. *)

let shape_t = Alcotest.testable Shape.pp Shape.equal

let candidate_shapes grid volume =
  candidates_for grid volume
  |> List.map (fun b -> b.Box.shape)
  |> List.sort_uniq Shape.compare

let test_candidates_cover_rotations () =
  (* Empty 4x4x1 grid: every rotation of 4x1x1 and 2x2x1 that fits the
     dims must appear among the volume-4 candidates — and nothing
     else. *)
  let grid = Grid.create ~wrap:false (Dims.make 4 4 1) in
  Alcotest.(check (list shape_t))
    "all fitting orientations"
    [ Shape.make 1 4 1; Shape.make 2 2 1; Shape.make 4 1 1 ]
    (candidate_shapes grid 4)

let test_orientation_forced_by_occupancy () =
  (* Occupy all but one row, then all but one column: in each case a
     single orientation of the volume-4 shape survives and every policy
     must return it. *)
  let dims = Dims.make 4 4 1 in
  let scenarios =
    [
      ("row", Box.make (Coord.make 0 1 0) (Shape.make 4 3 1), Shape.make 4 1 1);
      ("column", Box.make (Coord.make 1 0 0) (Shape.make 3 4 1), Shape.make 1 4 1);
    ]
  in
  List.iter
    (fun (label, blocker, expect_shape) ->
      let grid = Grid.create ~wrap:false dims in
      Grid.occupy grid blocker ~owner:1;
      let expected = Box.make (Coord.make 0 0 0) expect_shape in
      Alcotest.(check (list box_t)) (label ^ ": unique candidate") [ expected ]
        (candidates_for grid 4);
      List.iter
        (fun (policy : Policy.t) ->
          Alcotest.(check (option box_t))
            (label ^ ": " ^ policy.name)
            (Some expected)
            (choose policy grid ~j:(job ~size:4 ()) 4))
        [ Bgl_sched.Placement.first_fit; Bgl_sched.Placement.mfp ])
    scenarios

let test_mfp_picks_loss_free_orientation () =
  (* 4x4x1 with a 2x2 block occupied at (0,2): the 4x1 and 1x4
     orientations each cost 4 nodes of MFP, but a 2x2 placement can
     leave an 8-node maximal box untouched. MFP must choose the 2x2
     orientation. *)
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 0 2 0) (Shape.make 2 2 1)) ~owner:1;
  match choose Bgl_sched.Placement.mfp grid ~j:(job ~size:4 ()) 4 with
  | None -> Alcotest.fail "no placement"
  | Some box ->
      Alcotest.check shape_t "2x2 orientation" (Shape.make 2 2 1) box.Box.shape;
      check_int "zero MFP loss" 0 (direct_loss grid box)

(* ------------------------------------------------------------------ *)
(* Tie-breaking order: when scores tie, the earliest candidate in list
   order wins (argmin), and the tie-breaking policy scans ties in the
   same order. The engine relies on this for deterministic replay. *)

let line4 () = Grid.create ~wrap:false (Dims.make 4 1 1)

let cell i = Box.make (Coord.make i 0 0) (Shape.make 1 1 1)

(* On an empty 4x1x1 line, the end cells 0 and 3 tie at MFP loss 1
   while the middle cells cost 2: the tied set is {0, 3}. *)
let line_candidates = [ cell 0; cell 1; cell 2; cell 3 ]

let test_mfp_tie_goes_to_earliest () =
  let grid = line4 () in
  let pick candidates =
    let ctx = Policy.make_ctx ~now:0. grid in
    Bgl_sched.Placement.mfp.choose ctx ~job:(job ~size:1 ()) ~volume:1 ~candidates
  in
  check_int "end cells tie" (direct_loss grid (cell 0))
    (direct_loss grid (cell 3));
  check_bool "middle costs more" true
    (direct_loss grid (cell 1) > direct_loss grid (cell 0));
  Alcotest.(check (option box_t)) "forward order: first tied wins" (Some (cell 0))
    (pick line_candidates);
  Alcotest.(check (option box_t)) "reversed order: the other end wins" (Some (cell 3))
    (pick (List.rev line_candidates))

let test_tie_breaking_scan_order () =
  let grid = line4 () in
  let pick ~failed candidates =
    let idx = index_of (List.map (fun node -> (100., node)) failed) in
    let tb =
      Bgl_sched.Placement.tie_breaking
        ~predictor:(Bgl_predict.Predictor.tie_breaking ~accuracy:1.0 ~seed:1 idx)
        ()
    in
    let ctx = Policy.make_ctx ~now:0. grid in
    tb.Policy.choose ctx
      ~job:(job ~size:1 ~run_time:600. ~estimate:600. ())
      ~volume:1 ~candidates
  in
  (* No doomed tie: the first tied candidate wins, exactly like mfp. *)
  Alcotest.(check (option box_t)) "no doom: first tied" (Some (cell 0))
    (pick ~failed:[ 1 ] line_candidates);
  (* First tied candidate doomed: skips to the next safe tie, NOT to a
     safe non-tied candidate (cell 1 is safe but loses more MFP). *)
  Alcotest.(check (option box_t)) "doomed first tie skipped" (Some (cell 3))
    (pick ~failed:[ 0 ] line_candidates);
  (* Every tie doomed: falls back to the first tied candidate. *)
  Alcotest.(check (option box_t)) "all ties doomed: first tied" (Some (cell 0))
    (pick ~failed:[ 0; 3 ] line_candidates);
  (* Order sensitivity survives the predictor: reversed list, reversed
     winner. *)
  Alcotest.(check (option box_t)) "reversed: last becomes first" (Some (cell 3))
    (pick ~failed:[ 1 ] (List.rev line_candidates))

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_grid =
  QCheck.make
    ~print:(fun (seed, p) -> Printf.sprintf "seed=%d p=%.2f" seed p)
    QCheck.Gen.(pair small_int (float_bound_inclusive 0.8))

let build (seed, p) =
  let rng = Bgl_stats.Rng.create ~seed in
  let grid = Grid.create Dims.bgl in
  for node = 0 to 127 do
    if Bgl_stats.Rng.unit_float rng < p then Grid.occupy_node grid node ~owner:1
  done;
  grid

let prop_choices_are_candidates =
  QCheck.Test.make ~name:"every policy returns one of its candidates" ~count:60
    QCheck.(pair arb_grid (int_range 1 32))
    (fun (gspec, volume) ->
      let grid = build gspec in
      let candidates = candidates_for grid volume in
      let ctx = Policy.make_ctx ~now:0. grid in
      let idx = index_of [ (100., 0); (200., 5) ] in
      List.for_all
        (fun (policy : Policy.t) ->
          match policy.choose ctx ~job:(job ~size:volume ()) ~volume ~candidates with
          | None -> true
          | Some b -> List.exists (Box.equal b) candidates)
        [
          Bgl_sched.Placement.first_fit;
          Bgl_sched.Placement.mfp;
          Bgl_sched.Placement.balancing
            ~predictor:(Bgl_predict.Predictor.balancing ~confidence:0.5 idx) ();
          Bgl_sched.Placement.tie_breaking
            ~predictor:(Bgl_predict.Predictor.tie_breaking ~accuracy:0.5 ~seed:1 idx) ();
        ])

let prop_policies_leave_grid_unchanged =
  QCheck.Test.make ~name:"choosing does not mutate the grid" ~count:60
    QCheck.(pair arb_grid (int_range 1 32))
    (fun (gspec, volume) ->
      let grid = build gspec in
      let before = List.init 128 (Grid.owner grid) in
      let candidates = candidates_for grid volume in
      let ctx = Policy.make_ctx ~now:0. grid in
      ignore (Bgl_sched.Placement.mfp.choose ctx ~job:(job ~size:volume ()) ~volume ~candidates);
      List.init 128 (Grid.owner grid) = before)

let prop_mfp_early_exit_matches_exhaustive =
  (* The argmin early exit at loss 0 must return exactly the candidate
     a full first-minimum scan would. *)
  QCheck.Test.make ~name:"mfp early exit = exhaustive first-minimum" ~count:60
    QCheck.(pair arb_grid (int_range 1 16))
    (fun (gspec, volume) ->
      let grid = build gspec in
      let candidates = candidates_for grid volume in
      let ctx = Policy.make_ctx ~now:0. grid in
      let exhaustive =
        match candidates with
        | [] -> None
        | first :: rest ->
            let score c = direct_loss grid c in
            let best, _ =
              List.fold_left
                (fun (b, bs) c ->
                  let s = score c in
                  if s < bs then (c, s) else (b, bs))
                (first, score first) rest
            in
            Some best
      in
      let choice = Bgl_sched.Placement.mfp.choose ctx ~job:(job ~size:volume ()) ~volume ~candidates in
      match (choice, exhaustive) with
      | None, None -> true
      | Some a, Some b -> Box.equal a b
      | _ -> false)

let prop_mfp_choice_minimises =
  QCheck.Test.make ~name:"mfp policy choice has minimal loss" ~count:40
    QCheck.(pair arb_grid (int_range 1 16))
    (fun (gspec, volume) ->
      let grid = build gspec in
      let candidates = candidates_for grid volume in
      let ctx = Policy.make_ctx ~now:0. grid in
      match Bgl_sched.Placement.mfp.choose ctx ~job:(job ~size:volume ()) ~volume ~candidates with
      | None -> candidates = []
      | Some best ->
          let best_loss = direct_loss grid best in
          List.for_all (fun c -> direct_loss grid c >= best_loss) candidates)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_choices_are_candidates;
      prop_policies_leave_grid_unchanged;
      prop_mfp_early_exit_matches_exhaustive;
      prop_mfp_choice_minimises;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_sched"
    [
      ( "placement",
        [
          tc "first-fit" test_first_fit_picks_first;
          tc "empty candidates" test_empty_candidates;
          tc "mfp_loss shortcut" test_mfp_loss_shortcut_agrees;
          tc "policies only read the grid" test_policies_only_read_grid;
          tc "mfp minimises loss" test_mfp_minimises_loss;
          tc "balancing = mfp without prediction" test_balancing_equals_mfp_without_prediction;
          tc "balancing avoids doomed tie" test_balancing_avoids_doomed_when_tied;
          tc "balancing confidence crossover" test_balancing_confidence_crossover;
          tc "balancing decline threshold" test_balancing_decline_threshold;
          tc "combine rules" test_balancing_combine_rules_differ;
          tc "tie-breaking prefers safe" test_tie_breaking_prefers_safe_tie;
          tc "tie-breaking all doomed" test_tie_breaking_all_doomed_still_places;
          tc "tie-breaking only breaks ties" test_tie_breaking_ignores_non_tied_safe;
          tc "random policy" test_random_policy;
          tc "safest policy" test_safest_policy;
        ] );
      ( "orientation",
        [
          tc "candidates cover rotations" test_candidates_cover_rotations;
          tc "occupancy forces orientation" test_orientation_forced_by_occupancy;
          tc "mfp picks loss-free orientation" test_mfp_picks_loss_free_orientation;
        ] );
      ( "tie-order",
        [
          tc "mfp tie goes to earliest" test_mfp_tie_goes_to_earliest;
          tc "tie-breaking scan order" test_tie_breaking_scan_order;
        ] );
      ("properties", props);
    ]
