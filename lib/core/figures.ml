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

(* ------------------------------------------------------------------ *)
(* Memoised scenario runs: sweeps share many (profile, load, failures,
   algo, seed) combinations. *)

let cache : (string, Bgl_sim.Metrics.report) Hashtbl.t = Hashtbl.create 256

let clear_cache () = Hashtbl.reset cache

(* Parallelism works by replaying a figure producer twice. A first
   "collect" pass runs it with simulation stubbed out — [report_of]
   records each scenario it is asked for and answers with a dummy
   report — which yields the cell list without running anything. The
   cells are then simulated on the domain pool ({!Sweep.run}), their
   reports installed in [cache] from the main domain only (no locking,
   no cross-domain table), and the producer re-runs normally, all
   hits. Scenario runs are deterministic in the scenario value, so the
   result is bit-identical to a sequential sweep. *)
let collecting : Scenario.t list ref option ref = ref None

let dummy_report : Bgl_sim.Metrics.report =
  {
    total_jobs = 0;
    completed_jobs = 0;
    avg_wait = 0.;
    avg_response = 0.;
    avg_bounded_slowdown = 0.;
    median_bounded_slowdown = 0.;
    p90_bounded_slowdown = 0.;
    util = 0.;
    unused = 0.;
    lost = 0.;
    busy_fraction = 0.;
    makespan = 0.;
    failures_injected = 0;
    job_kills = 0;
    restarts = 0;
    lost_work = 0.;
    migrations = 0;
    checkpoints = 0;
  }

let report_of scenario =
  let key = Scenario.label scenario in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None -> (
      match !collecting with
      | Some acc ->
          acc := scenario :: !acc;
          dummy_report
      | None ->
          let r = (Scenario.run scenario).report in
          Hashtbl.replace cache key r;
          r)

let cells_of f scale =
  let acc = ref [] in
  collecting := Some acc;
  Fun.protect ~finally:(fun () -> collecting := None) (fun () -> ignore (f scale));
  (* Dedupe cells the producer asks for repeatedly (and any already
     cached): one simulation per distinct scenario label. *)
  let seen = Hashtbl.create 256 in
  List.filter
    (fun s ->
      let key = Scenario.label s in
      if Hashtbl.mem cache key || Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev !acc)
  |> Array.of_list

let install_report s r = Hashtbl.replace cache (Scenario.label s) r
let placeholder_report = dummy_report

let cached_report = report_of
let mean = Bgl_stats.Summary.mean

let avg scale mk (metric : Bgl_sim.Metrics.report -> float) =
  mean (List.map (fun seed -> metric (report_of (mk ~seed))) scale.seeds)

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

let intro_claim scale =
  let point failures ~seed =
    Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~failures_paper:failures ~seed ~profile:sdsc
      Scenario.Fault_oblivious
  in
  let at f = avg scale (point f) slowdown in
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

let fig3 scale =
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
           (float_of_int failures, avg scale mk slowdown))
         (fail_points scale sdsc))
  in
  Series.figure ~id:"fig3" ~title:"Avg bounded slowdown vs failure rate (SDSC, balancing)"
    ~xlabel:"failures" ~ylabel:"avg bounded slowdown"
    ~notes:[ provenance scale ]
    [ series 0.; series 0.1; series 0.9 ]

let fig4 scale =
  let series c =
    Series.series ~label:(Printf.sprintf "c=%g" c)
      (List.map
         (fun failures ->
           let mk ~seed =
             Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load:c ~failures_paper:failures ~seed
               ~profile:sdsc
               (Scenario.Balancing { confidence = 0.1 })
           in
           (float_of_int failures, avg scale mk slowdown))
         (fail_points scale sdsc))
  in
  Series.figure ~id:"fig4"
    ~title:"Avg bounded slowdown vs failure rate for different loads (SDSC, balancing a=0.1)"
    ~xlabel:"failures" ~ylabel:"avg bounded slowdown"
    ~notes:[ provenance scale ]
    [ series 1.0; series 1.2 ]

let capacity_series scale ~profile ~load ~x_of mk =
  List.map
    (fun (label, metric) ->
      Series.series ~label
        (List.map (fun x -> (x_of x, avg scale (mk x) metric)) (fail_points scale profile)))
    [ ("utilized", util); ("unused", unused); ("lost", lost) ]
  |> fun series -> ignore load; series

let fig5 scale =
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
        (capacity_series scale ~profile:sdsc ~load:c ~x_of:float_of_int mk))
    [ ("a", 1.0); ("b", 1.2) ]

let confidence_sweep scale ~profile ~load metric a =
  let algo = if a <= 0. then Scenario.Fault_oblivious else Scenario.Balancing { confidence = a } in
  let mk ~seed = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load ~seed ~profile algo in
  avg scale mk metric

let fig6 scale =
  List.map
    (fun (sub, profile) ->
      let series c =
        Series.series ~label:(Printf.sprintf "c=%g" c)
          (List.map
             (fun a -> (a, confidence_sweep scale ~profile ~load:c slowdown a))
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

let util_vs_confidence scale ~id ~profile ~load =
  Series.figure ~id
    ~title:
      (Printf.sprintf "Utilization vs confidence (%s, balancing, c=%g)"
         profile.Bgl_workload.Profile.name load)
    ~xlabel:"confidence" ~ylabel:"fraction of capacity"
    ~notes:[ provenance scale ]
    (List.map
       (fun (label, metric) ->
         Series.series ~label
           (List.map
              (fun a -> (a, confidence_sweep scale ~profile ~load metric a))
              scale.a_values))
       [ ("utilized", util); ("unused", unused); ("lost", lost) ])

let fig7 scale =
  [
    util_vs_confidence scale ~id:"fig7a" ~profile:sdsc ~load:1.0;
    util_vs_confidence scale ~id:"fig7b" ~profile:sdsc ~load:1.2;
  ]

let fig8 scale =
  [
    util_vs_confidence scale ~id:"fig8a" ~profile:llnl ~load:1.0;
    util_vs_confidence scale ~id:"fig8b" ~profile:llnl ~load:1.2;
  ]

let accuracy_sweep scale ~profile ~load metric a =
  let algo =
    if a <= 0. then Scenario.Fault_oblivious else Scenario.Tie_breaking { accuracy = a }
  in
  let mk ~seed = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~load ~seed ~profile algo in
  avg scale mk metric

let fig9 scale =
  List.map
    (fun (sub, profile) ->
      let series c =
        Series.series ~label:(Printf.sprintf "c=%g" c)
          (List.map (fun a -> (a, accuracy_sweep scale ~profile ~load:c slowdown a)) scale.a_values)
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

let fig10 scale =
  List.map
    (fun (sub, load) ->
      Series.figure
        ~id:(Printf.sprintf "fig10%s" sub)
        ~title:(Printf.sprintf "Utilization vs accuracy (LLNL, tie-breaking, c=%g)" load)
        ~xlabel:"accuracy" ~ylabel:"fraction of capacity"
        ~notes:[ provenance scale ]
        (List.map
           (fun (label, metric) ->
             Series.series ~label
               (List.map
                  (fun a -> (a, accuracy_sweep scale ~profile:llnl ~load metric a))
                  scale.a_values))
           [ ("utilized", util); ("unused", unused); ("lost", lost) ]))
    [ ("a", 1.0); ("b", 1.2) ]

let by_id id =
  let id = String.lowercase_ascii (String.trim id) in
  let single f = Some (fun scale -> [ f scale ]) in
  match id with
  | "intro" | "1" -> single intro_claim
  | "3" | "fig3" -> single fig3
  | "4" | "fig4" -> single fig4
  | "5" | "fig5" -> Some fig5
  | "6" | "fig6" -> Some fig6
  | "7" | "fig7" -> Some fig7
  | "8" | "fig8" -> Some fig8
  | "9" | "fig9" -> Some fig9
  | "10" | "fig10" -> Some fig10
  | _ -> None

let producers =
  [
    ("intro", fun scale -> [ intro_claim scale ]);
    ("fig3", fun scale -> [ fig3 scale ]);
    ("fig4", fun scale -> [ fig4 scale ]);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
  ]

let all scale = List.concat_map (fun (_, f) -> f scale) producers
