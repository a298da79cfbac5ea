type scale = {
  n_jobs : int;
  seeds : int list;
  a_values : float list;
  fail_fracs : float list;
  dims : Bgl_torus.Dims.t;
}

let grid_01 step =
  let n = int_of_float (Float.round (1. /. step)) in
  List.init (n + 1) (fun i -> float_of_int i *. step)

let quick =
  {
    n_jobs = 1500;
    seeds = [ 11; 12 ];
    a_values = grid_01 0.1;
    fail_fracs = grid_01 0.125;
    dims = Bgl_torus.Dims.bgl;
  }

let full =
  {
    n_jobs = 3000;
    seeds = [ 11; 12; 13 ];
    a_values = grid_01 0.1;
    fail_fracs = grid_01 0.125;
    dims = Bgl_torus.Dims.bgl;
  }

type lookup = Scenario.t -> Bgl_sim.Metrics.report
type producer = lookup -> scale -> Series.figure list

let find catalogue id =
  let id = String.lowercase_ascii (String.trim id) in
  List.find_map (fun (names, p) -> if List.mem id names then Some p else None) catalogue

let concat catalogue report scale = List.concat_map (fun (_, p) -> p report scale) catalogue

let avg report scale mk (metric : Bgl_sim.Metrics.report -> float) =
  Bgl_stats.Summary.mean (List.map (fun seed -> metric (report (mk ~seed))) scale.seeds)

let slowdown (r : Bgl_sim.Metrics.report) = r.avg_bounded_slowdown
let util (r : Bgl_sim.Metrics.report) = r.util
let unused (r : Bgl_sim.Metrics.report) = r.unused
let lost (r : Bgl_sim.Metrics.report) = r.lost

let fail_points scale (profile : Bgl_workload.Profile.t) =
  List.map
    (fun frac -> int_of_float (Float.round (frac *. float_of_int profile.paper_failures)))
    scale.fail_fracs

let provenance scale =
  Printf.sprintf "synthetic workload/failure traces; %d jobs/run, %d seed(s)" scale.n_jobs
    (List.length scale.seeds)

(* ------------------------------------------------------------------ *)

let sdsc = Bgl_workload.Profile.sdsc
let nasa = Bgl_workload.Profile.nasa
let llnl = Bgl_workload.Profile.llnl

let intro_claim report scale =
  let point failures ~seed =
    Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~failures_paper:failures ~seed ~profile:sdsc
      Scenario.Fault_oblivious
  in
  let at f = avg report scale (point f) slowdown in
  let base = at 0 and faulty = at 1000 in
  let increase = if base > 0. then 100. *. (faulty -. base) /. base else 0. in
  Series.figure ~id:"intro" ~title:"Slowdown cost of ignoring faults (Section 1)"
    ~xlabel:"failures" ~ylabel:"avg bounded slowdown"
    ~notes:
      [
        provenance scale;
        Printf.sprintf
          "fault-oblivious slowdown rises %.0f%% from 0 to the 1000-failure rate (paper: ~70%%)"
          increase;
      ]
    [ Series.series ~label:"fault-oblivious" [ (0., base); (1000., faulty) ] ]

let fig3 report scale =
  let algo_of a =
    if a <= 0. then Scenario.Fault_oblivious else Scenario.Balancing { confidence = a }
  in
  let series a =
    Series.series
      ~label:(if a <= 0. then "no prediction" else Printf.sprintf "a=%g" a)
      (List.map
         (fun failures ->
           let mk ~seed =
             Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~failures_paper:failures ~seed ~profile:sdsc
               (algo_of a)
           in
           (float_of_int failures, avg report scale mk slowdown))
         (fail_points scale sdsc))
  in
  Series.figure ~id:"fig3" ~title:"Avg bounded slowdown vs failure rate (SDSC, balancing)"
    ~xlabel:"failures" ~ylabel:"avg bounded slowdown"
    ~notes:[ provenance scale ]
    [ series 0.; series 0.1; series 0.9 ]

let fig4 report scale =
  let series c =
    Series.series ~label:(Printf.sprintf "c=%g" c)
      (List.map
         (fun failures ->
           let mk ~seed =
             Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load:c ~failures_paper:failures ~seed
               ~profile:sdsc
               (Scenario.Balancing { confidence = 0.1 })
           in
           (float_of_int failures, avg report scale mk slowdown))
         (fail_points scale sdsc))
  in
  Series.figure ~id:"fig4"
    ~title:"Avg bounded slowdown vs failure rate for different loads (SDSC, balancing a=0.1)"
    ~xlabel:"failures" ~ylabel:"avg bounded slowdown"
    ~notes:[ provenance scale ]
    [ series 1.0; series 1.2 ]

(* One series per capacity share; [point x metric] is the (x, y) pair. *)
let capacity_series xs point =
  List.map
    (fun (label, metric) -> Series.series ~label (List.map (fun x -> point x metric) xs))
    [ ("utilized", util); ("unused", unused); ("lost", lost) ]

let fig5 report scale =
  List.map
    (fun (sub, c) ->
      let mk failures ~seed =
        Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load:c ~failures_paper:failures ~seed ~profile:sdsc
          (Scenario.Balancing { confidence = 0.1 })
      in
      Series.figure
        ~id:(Printf.sprintf "fig5%s" sub)
        ~title:(Printf.sprintf "Utilization vs failure rate (SDSC, balancing a=0.1, c=%g)" c)
        ~xlabel:"failures" ~ylabel:"fraction of capacity"
        ~notes:[ provenance scale ]
        (capacity_series (fail_points scale sdsc) (fun failures metric ->
             (float_of_int failures, avg report scale (mk failures) metric))))
    [ ("a", 1.0); ("b", 1.2) ]

let confidence_sweep report scale ~profile ~load metric a =
  let algo = if a <= 0. then Scenario.Fault_oblivious else Scenario.Balancing { confidence = a } in
  let mk ~seed = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load ~seed ~profile algo in
  avg report scale mk metric

let fig6 report scale =
  List.map
    (fun (sub, profile) ->
      let series c =
        Series.series ~label:(Printf.sprintf "c=%g" c)
          (List.map
             (fun a -> (a, confidence_sweep report scale ~profile ~load:c slowdown a))
             scale.a_values)
      in
      Series.figure
        ~id:(Printf.sprintf "fig6%s" sub)
        ~title:
          (Printf.sprintf "Avg bounded slowdown vs confidence (%s, balancing, %d failures)"
             profile.Bgl_workload.Profile.name profile.paper_failures)
        ~xlabel:"confidence" ~ylabel:"avg bounded slowdown"
        ~notes:[ provenance scale ]
        [ series 1.0; series 1.2 ])
    [ ("a", sdsc); ("b", nasa); ("c", llnl) ]

let util_vs_confidence report scale ~id ~profile ~load =
  Series.figure ~id
    ~title:
      (Printf.sprintf "Utilization vs confidence (%s, balancing, c=%g)"
         profile.Bgl_workload.Profile.name load)
    ~xlabel:"confidence" ~ylabel:"fraction of capacity"
    ~notes:[ provenance scale ]
    (capacity_series scale.a_values (fun a metric ->
         (a, confidence_sweep report scale ~profile ~load metric a)))

let fig7 report scale =
  [
    util_vs_confidence report scale ~id:"fig7a" ~profile:sdsc ~load:1.0;
    util_vs_confidence report scale ~id:"fig7b" ~profile:sdsc ~load:1.2;
  ]

let fig8 report scale =
  [
    util_vs_confidence report scale ~id:"fig8a" ~profile:llnl ~load:1.0;
    util_vs_confidence report scale ~id:"fig8b" ~profile:llnl ~load:1.2;
  ]

let accuracy_sweep report scale ~profile ~load metric a =
  let algo =
    if a <= 0. then Scenario.Fault_oblivious else Scenario.Tie_breaking { accuracy = a }
  in
  let mk ~seed = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load ~seed ~profile algo in
  avg report scale mk metric

let fig9 report scale =
  List.map
    (fun (sub, profile) ->
      let series c =
        Series.series ~label:(Printf.sprintf "c=%g" c)
          (List.map
             (fun a -> (a, accuracy_sweep report scale ~profile ~load:c slowdown a))
             scale.a_values)
      in
      Series.figure
        ~id:(Printf.sprintf "fig9%s" sub)
        ~title:
          (Printf.sprintf "Avg bounded slowdown vs accuracy (%s, tie-breaking, %d failures)"
             profile.Bgl_workload.Profile.name profile.paper_failures)
        ~xlabel:"accuracy" ~ylabel:"avg bounded slowdown"
        ~notes:[ provenance scale ]
        [ series 1.0; series 1.2 ])
    [ ("a", sdsc); ("b", nasa); ("c", llnl) ]

let fig10 report scale =
  List.map
    (fun (sub, load) ->
      Series.figure
        ~id:(Printf.sprintf "fig10%s" sub)
        ~title:(Printf.sprintf "Utilization vs accuracy (LLNL, tie-breaking, c=%g)" load)
        ~xlabel:"accuracy" ~ylabel:"fraction of capacity"
        ~notes:[ provenance scale ]
        (capacity_series scale.a_values (fun a metric ->
             (a, accuracy_sweep report scale ~profile:llnl ~load metric a))))
    [ ("a", 1.0); ("b", 1.2) ]

let catalogue =
  let one f report scale = [ f report scale ] in
  [
    ([ "intro"; "1" ], one intro_claim);
    ([ "fig3"; "3" ], one fig3);
    ([ "fig4"; "4" ], one fig4);
    ([ "fig5"; "5" ], fig5);
    ([ "fig6"; "6" ], fig6);
    ([ "fig7"; "7" ], fig7);
    ([ "fig8"; "8" ], fig8);
    ([ "fig9"; "9" ], fig9);
    ([ "fig10"; "10" ], fig10);
  ]
