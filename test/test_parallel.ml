(* Tests for the domain pool and the parallel-sweep plumbing: result
   order and exception propagation, domain-safe observability
   (counters summed across domains, spans merged), the domain-local
   finder cache, and bit-identical parallel vs sequential figures. *)

open Bgl_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_map_order () =
  let items = Array.init 100 Fun.id in
  let expect = Array.map (fun i -> i * i) items in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "squares with %d domains" domains)
        expect
        (Bgl_parallel.Pool.map ~domains (fun i -> i * i) items))
    [ 1; 2; 4; 7 ]

let test_map_edge_shapes () =
  Alcotest.(check (array int)) "empty" [||] (Bgl_parallel.Pool.map ~domains:4 (fun i -> i) [||]);
  Alcotest.(check (array int))
    "more domains than items" [| 10; 20 |]
    (Bgl_parallel.Pool.map ~domains:8 (fun i -> 10 * i) [| 1; 2 |])

let test_map_invalid_domains () =
  Alcotest.check_raises "0 domains" (Invalid_argument "Pool.map: domains must be >= 1")
    (fun () -> ignore (Bgl_parallel.Pool.map ~domains:0 Fun.id [| 1 |]))

exception Boom of int

let test_map_propagates_exception () =
  check_bool "first failing item's exception" true
    (try
       ignore
         (Bgl_parallel.Pool.map ~domains:4
            (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
            (Array.init 32 (fun i -> i + 1)));
       false
     with Boom 3 -> true)

(* ------------------------------------------------------------------ *)
(* Observability across domains *)

let test_counters_sum_across_domains () =
  let reg = Bgl_obs.Registry.create () in
  let c = Bgl_obs.Registry.counter reg "test_parallel_total" in
  let n = 64 in
  ignore
    (Bgl_parallel.Pool.map ~domains:4
       (fun _ ->
         for _ = 1 to 100 do
           Bgl_obs.Registry.inc c
         done)
       (Array.make n ()));
  check_int "all increments kept" (n * 100)
    (int_of_float (Bgl_obs.Registry.counter_value c))

let test_engine_counters_after_parallel_runs () =
  (* The registry travels to workers via the Runtime snapshot; engine
     event counters must add up exactly as in a sequential sweep. *)
  let reg = Bgl_obs.Registry.create () in
  Bgl_obs.Runtime.set_registry reg;
  Fun.protect ~finally:Bgl_obs.Runtime.reset (fun () ->
      let scenarios =
        Array.of_list
          (List.map
             (fun seed ->
               Scenario.make ~n_jobs:50 ~seed ~profile:Bgl_workload.Profile.sdsc
                 Scenario.First_fit)
             [ 21; 22; 23; 24 ])
      in
      ignore (Bgl_parallel.Pool.map ~domains:4 (fun s -> (Scenario.run s).report) scenarios);
      let arrivals =
        Bgl_obs.Registry.counter reg "bgl_sim_events_total{kind=\"arrival\"}"
      in
      check_int "one arrival per job per run" 200
        (int_of_float (Bgl_obs.Registry.counter_value arrivals)))

let test_spans_merge_across_domains () =
  Bgl_obs.Span.reset ();
  Bgl_obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Bgl_obs.Span.set_enabled false) (fun () ->
      ignore
        (Bgl_parallel.Pool.map ~domains:4
           (fun i -> Bgl_obs.Span.time ~name:"test.pool-span" (fun () -> i * 2))
           (Array.init 24 Fun.id)));
  match
    List.find_opt (fun (s : Bgl_obs.Span.stat) -> s.name = "test.pool-span")
      (Bgl_obs.Span.stats ())
  with
  | None -> Alcotest.fail "span not recorded"
  | Some s -> check_int "calls from every domain merged" 24 s.count

(* ------------------------------------------------------------------ *)
(* Finder cache under concurrency: every domain binds its own cache to
   one shared grid and must agree with the sequential reference. *)

let test_finder_cache_across_domains () =
  let open Bgl_torus in
  let open Bgl_partition in
  let d = Dims.make 4 4 4 in
  let g = Grid.create d in
  let rng = Bgl_stats.Rng.create ~seed:5 in
  for node = 0 to Dims.volume d - 1 do
    if Bgl_stats.Rng.unit_float rng < 0.4 then
      Grid.occupy_node g node ~owner:(node mod 7)
  done;
  let volumes = Array.init 16 (fun i -> i + 1) in
  let sequential = Array.map (fun volume -> Finder.Reference.find Pop g ~volume) volumes in
  let parallel =
    Bgl_parallel.Pool.map ~domains:4
      (fun volume -> Finder.Cache.find (Finder.Cache.create g) ~volume)
      volumes
  in
  check_bool "same boxes from every domain" true (parallel = sequential)

(* ------------------------------------------------------------------ *)
(* Parallel figures are bit-identical *)

let test_fig3_deterministic_across_domains () =
  let scale =
    { Figures.n_jobs = 300; seeds = [ 11; 12 ]; a_values = [ 0.; 0.5; 1. ];
      fail_fracs = [ 0.; 0.5; 1. ]; dims = Bgl_torus.Dims.bgl }
  in
  let produce domains =
    Figures.clear_cache ();
    Figures.produce ~domains (fun scale -> [ Figures.fig3 scale ]) scale
  in
  let sequential = produce 1 in
  let parallel = produce 4 in
  check_bool "fig3 identical with 1 and 4 domains" true (parallel = sequential)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_parallel"
    [
      ( "pool",
        [
          tc "map preserves order" test_map_order;
          tc "edge shapes" test_map_edge_shapes;
          tc "invalid domains" test_map_invalid_domains;
          tc "exception propagation" test_map_propagates_exception;
        ] );
      ( "obs",
        [
          tc "counters sum" test_counters_sum_across_domains;
          tc "engine counters" test_engine_counters_after_parallel_runs;
          tc "spans merge" test_spans_merge_across_domains;
        ] );
      ("finder", [ tc "cache across domains" test_finder_cache_across_domains ]);
      ("figures", [ tc "fig3 deterministic" test_fig3_deterministic_across_domains ]);
    ]
