(* Walkthrough of the paper's Figures 1 and 2: how the MFP heuristic
   chooses placements and how fault prediction changes the choice.

     dune exec examples/placement_walkthrough.exe *)

open Bgl_torus

let show_grid title grid = Format.printf "%s@.%a@." title Grid.pp grid

(* Figure 1: placing a job flush against existing allocations preserves
   a larger maximal free partition than splitting the free space. *)
let figure1 () =
  Format.printf "== Figure 1: the MFP heuristic ==@.";
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 0 0 0) (Shape.make 2 2 1)) ~owner:0;
  show_grid "torus (z=0 plane shown; A = running job):" grid;
  let adjacent = Box.make (Coord.make 2 0 0) (Shape.make 2 1 1) in
  let middle = Box.make (Coord.make 1 2 0) (Shape.make 2 1 1) in
  Format.printf "MFP before placement: %d@." (Bgl_partition.Mfp.volume grid);
  Format.printf "placement (a) in the middle of free space %a: MFP after = %d@." Box.pp middle
    (Bgl_partition.Mfp.volume_after grid middle);
  Format.printf "placement (b) flush against the job %a: MFP after = %d@." Box.pp adjacent
    (Bgl_partition.Mfp.volume_after grid adjacent);
  Format.printf "the scheduler prefers (b), which keeps the larger MFP.@.@."

(* Figure 2 (a)/(b): a larger-MFP placement on nodes predicted to fail
   versus a smaller-MFP stable placement; the balancing algorithm's
   E_loss = L_MFP + P_f * s decides, so the prediction confidence tips
   the choice. *)
let figure2 () =
  Format.printf "== Figure 2: balancing MFP loss against predicted failures ==@.";
  let dims = Dims.make 4 4 1 in
  let grid = Grid.create ~wrap:false dims in
  (* Two running jobs shape the free space so that the placement with
     the smallest MFP loss (the column at x=2) sits on a node that is
     about to fail, while a stable 2x2 placement costs one extra unit
     of MFP - exactly the trade-off of the paper's Figure 2(a)/(b). *)
  Grid.occupy grid (Box.make (Coord.make 0 0 0) (Shape.make 2 4 1)) ~owner:0;
  Grid.occupy grid (Box.make (Coord.make 3 3 0) (Shape.make 1 1 1)) ~owner:1;
  let doomed_nodes = [ Coord.index dims (Coord.make 2 0 0) ] in
  let failures =
    Bgl_trace.Failure_log.make ~name:"figure2"
      (List.map (fun node -> { Bgl_trace.Failure_log.time = 500.; node }) doomed_nodes)
  in
  let index = Bgl_predict.Failure_index.of_log failures in
  show_grid "torus (A, B = running jobs; node (2,0,0) will fail at t=500):" grid;
  let job = { Bgl_trace.Job_log.id = 1; arrival = 0.; size = 4; run_time = 1000.; estimate = 1000. } in
  let cache = Bgl_partition.Finder.Cache.create grid in
  let candidates = Bgl_partition.Finder.Cache.find cache ~volume:4 in
  Format.printf "candidates for the 4-node job: %d partitions@." (List.length candidates);
  List.iter
    (fun confidence ->
      let predictor = Bgl_predict.Predictor.balancing ~confidence index in
      let policy = Bgl_sched.Placement.balancing ~predictor () in
      let ctx = Bgl_sim.Policy.make_ctx ~cache ~now:0. grid in
      match policy.choose ctx ~job ~volume:4 ~candidates with
      | Some box ->
          let doomed = List.exists (fun n -> List.mem n (Box.indices dims box)) doomed_nodes in
          Format.printf "confidence %.1f -> places at %a%s@." confidence Box.pp box
            (if doomed then "  (on doomed nodes!)" else "  (stable)")
      | None -> Format.printf "confidence %.1f -> declines@." confidence)
    [ 0.0; 0.1; 0.5; 0.9 ];
  Format.printf "@."

(* Figure 2 (c)/(d): two placements with the same MFP loss; the
   tie-breaking algorithm picks the one the boolean predictor calls
   safe. *)
let figure2_tiebreak () =
  Format.printf "== Figure 2(c,d): tie-breaking between equal-MFP placements ==@.";
  let dims = Dims.make 4 2 1 in
  let grid = Grid.create ~wrap:false dims in
  Grid.occupy grid (Box.make (Coord.make 1 0 0) (Shape.make 2 2 1)) ~owner:0;
  (* Free columns x=0 and x=3 are symmetric: identical MFP loss. Column
     x=0 is doomed. *)
  let doomed = [ Coord.index dims (Coord.make 0 0 0) ] in
  let failures =
    Bgl_trace.Failure_log.make ~name:"figure2cd"
      (List.map (fun node -> { Bgl_trace.Failure_log.time = 100.; node }) doomed)
  in
  let index = Bgl_predict.Failure_index.of_log failures in
  show_grid "torus (free columns x=0 and x=3; x=0 will fail):" grid;
  let job = { Bgl_trace.Job_log.id = 2; arrival = 0.; size = 2; run_time = 600.; estimate = 600. } in
  let cache = Bgl_partition.Finder.Cache.create grid in
  let candidates = Bgl_partition.Finder.Cache.find cache ~volume:2 in
  let predictor = Bgl_predict.Predictor.tie_breaking ~accuracy:1.0 ~seed:3 index in
  let policy = Bgl_sched.Placement.tie_breaking ~predictor () in
  let ctx = Bgl_sim.Policy.make_ctx ~cache ~now:0. grid in
  (match policy.choose ctx ~job ~volume:2 ~candidates with
  | Some box ->
      Format.printf "tie-breaking picks %a (avoids the doomed column)@." Box.pp box;
      assert (not (List.exists (fun n -> List.mem n (Box.indices dims box)) doomed))
  | None -> assert false);
  Format.printf "@."

let () =
  figure1 ();
  figure2 ();
  figure2_tiebreak ()
