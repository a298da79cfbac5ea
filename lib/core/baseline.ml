let profiles =
  [ (0., Bgl_workload.Profile.nasa); (1., Bgl_workload.Profile.sdsc); (2., Bgl_workload.Profile.llnl) ]

let variants =
  [
    ("fcfs", fun (c : Bgl_sim.Config.t) -> { c with backfill = false; migration = false });
    ("+backfill", fun c -> { c with backfill = true; migration = false });
    ( "+migration",
      fun c -> { c with backfill = true; migration = true; migration_overhead = 60. } );
  ]

let point report (scale : Figures.scale) ~profile ~failures ~variant metric =
  let config = variant Bgl_sim.Config.default in
  let mk ~seed =
    Scenario.make ~n_jobs:scale.n_jobs ~dims:scale.dims ~failures_paper:failures ~seed ~config ~profile
      Scenario.Fault_oblivious
  in
  Figures.avg report scale mk metric

let sweep report scale ~failures metric =
  List.map
    (fun (label, variant) ->
      Series.series ~label
        (List.map
           (fun (x, profile) -> (x, point report scale ~profile ~failures ~variant metric))
           profiles))
    variants

let profile_note = "x axis: 0=NASA, 1=SDSC, 2=LLNL"

let slowdown report scale =
  Series.figure ~id:"baseline-slowdown"
    ~title:"Krevat baseline: FCFS vs backfilling vs migration (failure-free)" ~xlabel:"workload"
    ~ylabel:"avg bounded slowdown"
    ~notes:[ profile_note ]
    (sweep report scale ~failures:0 Figures.slowdown)

let utilisation report scale =
  Series.figure ~id:"baseline-util"
    ~title:"Krevat baseline: utilised capacity (failure-free)" ~xlabel:"workload"
    ~ylabel:"utilised fraction"
    ~notes:[ profile_note ]
    (sweep report scale ~failures:0 Figures.util)

let under_failures report scale =
  let sdsc = Bgl_workload.Profile.sdsc in
  Series.figure ~id:"baseline-failures"
    ~title:"Krevat baseline under failures (SDSC, paper failure count)" ~xlabel:"variant"
    ~ylabel:"metric"
    ~notes:[ "x axis: 0=fcfs, 1=+backfill, 2=+migration" ]
    (List.map
       (fun (label, metric) ->
         Series.series ~label
           (List.mapi
              (fun i (_, variant) ->
                ( float_of_int i,
                  point report scale ~profile:sdsc ~failures:sdsc.paper_failures ~variant metric ))
              variants))
       [ ("avg slowdown", Figures.slowdown); ("utilization", Figures.util) ])

let catalogue =
  [
    ([ "baseline-slowdown" ], fun report scale -> [ slowdown report scale ]);
    ([ "baseline-util" ], fun report scale -> [ utilisation report scale ]);
    ([ "baseline-failures" ], fun report scale -> [ under_failures report scale ]);
  ]
