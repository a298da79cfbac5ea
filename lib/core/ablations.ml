open Bgl_workload
open Figures

let combine_rule report scale =
  let series combine label =
    Series.series ~label
      (List.filter_map
         (fun a ->
           if a <= 0. then None
           else
             let mk ~seed =
               Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~combine
                 ~profile:Profile.sdsc
                 (Scenario.Balancing { confidence = a })
             in
             Some (a, avg report scale mk slowdown))
         scale.a_values)
  in
  Series.figure ~id:"ablate-combine"
    ~title:"P_f combination rule in the balancing algorithm (SDSC)" ~xlabel:"confidence"
    ~ylabel:"avg bounded slowdown"
    ~notes:[ "paper Section 4.1 says max, Section 5.2.1 says 1-prod(1-p); we default to product" ]
    [ series `Product "product"; series `Max "max" ]

let false_positives report scale =
  let series fp =
    Series.series ~label:(Printf.sprintf "p_f+=%g" fp)
      (List.filter_map
         (fun a ->
           if a <= 0. then None
           else
             let mk ~seed =
               Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~false_positive:fp
                 ~profile:Profile.sdsc
                 (Scenario.Tie_breaking { accuracy = a })
             in
             Some (a, avg report scale mk slowdown))
         scale.a_values)
  in
  Series.figure ~id:"ablate-fpos"
    ~title:"Tie-breaking under predictor false positives (SDSC)" ~xlabel:"accuracy"
    ~ylabel:"avg bounded slowdown"
    ~notes:[ "the paper argues p_f+ < p_f-/2 in practice and drops it from the analysis" ]
    [ series 0.; series 0.05; series 0.1; series 0.2 ]

let with_checkpoint spec (config : Bgl_sim.Config.t) = { config with checkpoint = spec }

let checkpointing report scale =
  let intervals = [ (0., "none"); (1800., "30min"); (3600., "1h"); (14400., "4h") ] in
  let point (interval, _) metric =
    let config =
      if interval <= 0. then Bgl_sim.Config.default
      else
        with_checkpoint (Some (Bgl_sim.Checkpoint.Periodic { interval; overhead = 60. }))
          Bgl_sim.Config.default
    in
    let mk ~seed =
      Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~config
        ~profile:Profile.sdsc Scenario.Fault_oblivious
    in
    avg report scale mk metric
  in
  Series.figure ~id:"ablate-checkpoint"
    ~title:"Periodic checkpointing interval (SDSC, fault-oblivious, 60 s overhead)"
    ~xlabel:"interval (s; 0 = no checkpointing)" ~ylabel:"metric"
    ~notes:[ "future-work item 1 of the paper" ]
    [
      Series.series ~label:"avg slowdown"
        (List.map (fun p -> (fst p, point p slowdown)) intervals);
      Series.series ~label:"utilization" (List.map (fun p -> (fst p, point p util)) intervals);
    ]

let adaptive_checkpointing report scale =
  let series label spec =
    Series.series ~label
      (List.filter_map
         (fun a ->
           if a <= 0. then None
           else
             let config = with_checkpoint spec Bgl_sim.Config.default in
             let mk ~seed =
               Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~config
                 ~profile:Profile.sdsc
                 (Scenario.Tie_breaking { accuracy = a })
             in
             Some (a, avg report scale mk slowdown))
         scale.a_values)
  in
  Series.figure ~id:"ablate-adaptive"
    ~title:"Adaptive (prediction-coupled) vs periodic checkpointing (SDSC, tie-breaking)"
    ~xlabel:"accuracy" ~ylabel:"avg bounded slowdown"
    ~notes:[ "adaptive checkpoints doomed placements every 30 min, safe ones every 4 h" ]
    [
      series "none" None;
      series "periodic 1h" (Some (Bgl_sim.Checkpoint.Periodic { interval = 3600.; overhead = 60. }));
      series "adaptive"
        (Some
           (Bgl_sim.Checkpoint.Adaptive
              { risky_interval = 1800.; safe_interval = 14400.; overhead = 60. }));
    ]

let backfilling report scale =
  let point ~backfill ~failures metric =
    let config = { Bgl_sim.Config.default with backfill } in
    let mk ~seed =
      Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~config ~failures_paper:failures
        ~profile:Profile.sdsc
        Scenario.Fault_oblivious
    in
    avg report scale mk metric
  in
  let xs = [ (0., 0); (4000., 4000) ] in
  Series.figure ~id:"ablate-backfill" ~title:"EASY backfilling on/off (SDSC, fault-oblivious)"
    ~xlabel:"failures" ~ylabel:"avg bounded slowdown"
    ~notes:[ "backfilling is part of Krevat's baseline; this quantifies its contribution" ]
    [
      Series.series ~label:"backfill"
        (List.map (fun (x, f) -> (x, point ~backfill:true ~failures:f slowdown)) xs);
      Series.series ~label:"no backfill"
        (List.map (fun (x, f) -> (x, point ~backfill:false ~failures:f slowdown)) xs);
    ]

let migration report scale =
  let point ~migration metric =
    let config = { Bgl_sim.Config.default with migration; migration_overhead = 60. } in
    let mk ~seed =
      Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~config ~profile:Profile.sdsc
        (Scenario.Balancing { confidence = 0.1 })
    in
    avg report scale mk metric
  in
  Series.figure ~id:"ablate-migration"
    ~title:"Job migration (defragmentation) on/off (SDSC, balancing a=0.1)" ~xlabel:"migration"
    ~ylabel:"metric"
    ~notes:[ "Krevat's migration option; off in the paper's experiments" ]
    [
      Series.series ~label:"avg slowdown"
        [ (0., point ~migration:false slowdown); (1., point ~migration:true slowdown) ];
      Series.series ~label:"utilization"
        [ (0., point ~migration:false util); (1., point ~migration:true util) ];
    ]

let failure_model report scale =
  let uniform_spec ~span ~volume ~n_events ~seed =
    {
      (Bgl_failure.Generator.default ~span ~volume ~n_events ~seed) with
      burst_mean_size = 1.;
      burst_jitter = 0.;
      node_skew = 0.;
    }
  in
  let point ~uniform ~algo =
    let mk ~seed =
      let sc = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed
                 ~profile:Profile.sdsc algo in
      if uniform then { sc with failure_spec_of = uniform_spec; variant_tag = "uniform" } else sc
    in
    avg report scale mk slowdown
  in
  let algos =
    [ (0., Scenario.Fault_oblivious); (1., Scenario.Balancing { confidence = 0.5 }) ]
  in
  Series.figure ~id:"ablate-failure-model"
    ~title:"Bursty/skewed vs uniform Poisson failures (SDSC, 4000 failures)"
    ~xlabel:"algorithm (0=oblivious, 1=balancing a=0.5)" ~ylabel:"avg bounded slowdown"
    ~notes:
      [
        "prediction pays off because real failures concentrate on few nodes; uniform failures \
         erase much of the benefit";
      ]
    [
      Series.series ~label:"bursty+skewed"
        (List.map (fun (x, algo) -> (x, point ~uniform:false ~algo)) algos);
      Series.series ~label:"uniform"
        (List.map (fun (x, algo) -> (x, point ~uniform:true ~algo)) algos);
    ]

let repair_time report scale =
  let times = [ 0.; 600.; 3600. ] in
  let point repair metric =
    let config = { Bgl_sim.Config.default with repair_time = repair } in
    let mk ~seed =
      Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~config ~profile:Profile.sdsc
        (Scenario.Balancing { confidence = 0.5 })
    in
    avg report scale mk metric
  in
  Series.figure ~id:"ablate-repair"
    ~title:"Node downtime after failure (SDSC, balancing a=0.5)" ~xlabel:"repair time (s)"
    ~ylabel:"metric"
    ~notes:[ "the paper assumes failed nodes return instantly; Section 7.1 flags this" ]
    [
      Series.series ~label:"avg slowdown" (List.map (fun r -> (r, point r slowdown)) times);
      Series.series ~label:"utilization" (List.map (fun r -> (r, point r util)) times);
    ]

let candidate_cap report scale =
  let caps = [ (4., Some 4); (8., Some 8); (16., Some 16); (24., Some 24); (64., None) ] in
  let point cap =
    let config = { Bgl_sim.Config.default with candidate_cap = cap } in
    let mk ~seed =
      Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed ~config ~profile:Profile.sdsc
        (Scenario.Balancing { confidence = 0.5 })
    in
    avg report scale mk slowdown
  in
  Series.figure ~id:"ablate-candidates"
    ~title:"Candidate-partition cap (SDSC, balancing a=0.5)" ~xlabel:"cap (64 = unlimited)"
    ~ylabel:"avg bounded slowdown"
    ~notes:[ "engine-level optimisation: evenly subsampled candidate partitions" ]
    [ Series.series ~label:"avg slowdown" (List.map (fun (x, c) -> (x, point c)) caps) ]

let history_predictor report scale =
  (* x axis: EWMA half-life in hours. The balancing variant consumes
     the predictor's probability, so the decision threshold (only
     meaningful for the boolean view) is fixed at 0.5 for the
     tie-breaking variant. *)
  let half_lives_h = [ 6.; 24.; 48.; 168.; 672. ] in
  let slow algo =
    let mk ~seed = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed
                     ~profile:Profile.sdsc algo in
    avg report scale mk slowdown
  in
  let baseline = slow Scenario.Fault_oblivious in
  let simulated = slow (Scenario.Balancing { confidence = 0.5 }) in
  let per_hl mk_algo =
    List.map (fun hl_h -> (hl_h, slow (mk_algo (hl_h *. 3600.)))) half_lives_h
  in
  Series.figure ~id:"ablate-history"
    ~title:"Learned (history-only EWMA) prediction vs the paper's simulated confidence (SDSC)"
    ~xlabel:"EWMA half-life (hours)" ~ylabel:"avg bounded slowdown"
    ~notes:
      [
        "the EWMA predictor sees only past failures (no oracle)";
        "flat reference lines: fault-oblivious and balancing with simulated confidence 0.5";
      ]
    [
      Series.series ~label:"balancing+ewma"
        (per_hl (fun half_life -> Scenario.Balancing_history { half_life; threshold = 0.5 }));
      Series.series ~label:"tie-break+ewma"
        (per_hl (fun half_life -> Scenario.Tie_breaking_history { half_life; threshold = 0.5 }));
      Series.series ~label:"fault-oblivious" (List.map (fun t -> (t, baseline)) half_lives_h);
      Series.series ~label:"balancing(a=0.5)" (List.map (fun t -> (t, simulated)) half_lives_h);
    ]

let policy_zoo report scale =
  let policies =
    [
      (0., "random", Scenario.Random_fit);
      (1., "first-fit", Scenario.First_fit);
      (2., "mfp", Scenario.Fault_oblivious);
      (3., "safest", Scenario.Safest);
      (4., "balancing a=0.5", Scenario.Balancing { confidence = 0.5 });
      (5., "tie-breaking a=0.5", Scenario.Tie_breaking { accuracy = 0.5 });
    ]
  in
  let measure metric =
    List.map
      (fun (x, _, algo) ->
        let mk ~seed = Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~seed
                         ~profile:Profile.sdsc algo in
        (x, avg report scale mk metric))
      policies
  in
  let labels = String.concat ", " (List.map (fun (x, l, _) -> Printf.sprintf "%g=%s" x l) policies) in
  Series.figure ~id:"ablate-policy-zoo"
    ~title:"Placement-policy zoo under 4000 failures (SDSC)" ~xlabel:"policy" ~ylabel:"metric"
    ~notes:[ labels ]
    [
      Series.series ~label:"avg slowdown" (measure slowdown);
      Series.series ~label:"utilization" (measure util);
    ]

let catalogue =
  List.map
    (fun (names, f) -> (names, fun report scale -> [ f report scale ]))
    [
      ([ "ablate-combine"; "combine" ], combine_rule);
      ([ "ablate-fpos"; "fpos" ], false_positives);
      ([ "ablate-checkpoint"; "checkpoint" ], checkpointing);
      ([ "ablate-adaptive"; "adaptive" ], adaptive_checkpointing);
      ([ "ablate-backfill"; "backfill" ], backfilling);
      ([ "ablate-migration"; "migration" ], migration);
      ([ "ablate-failure-model"; "failure-model" ], failure_model);
      ([ "ablate-repair"; "repair" ], repair_time);
      ([ "ablate-candidates"; "candidates" ], candidate_cap);
      ([ "ablate-history"; "history" ], history_predictor);
      ([ "ablate-policy-zoo"; "policy-zoo"; "zoo" ], policy_zoo);
    ]
