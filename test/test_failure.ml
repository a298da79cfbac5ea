(* Tests for the synthetic failure-trace generator. *)

open Bgl_failure

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spec ?(n_events = 400) ?(span = 1e6) ?(volume = 128) ?(seed = 5) () =
  Generator.default ~span ~volume ~n_events ~seed

let test_exact_count () =
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "exactly %d events" n)
        n
        (Bgl_trace.Failure_log.length (Generator.generate (spec ~n_events:n ()))))
    [ 0; 1; 7; 400 ]

let test_within_span () =
  let log = Generator.generate (spec ()) in
  Array.iter
    (fun (e : Bgl_trace.Failure_log.event) ->
      check_bool "time in [0, span]" true (e.time >= 0. && e.time <= 1e6))
    log.events

let test_nodes_within_volume () =
  let log = Generator.generate (spec ~volume:16 ()) in
  check_bool "nodes < 16" true (List.for_all (fun n -> n >= 0 && n < 16) (Bgl_trace.Failure_log.nodes log))

let test_deterministic () =
  let a = Generator.generate (spec ()) in
  let b = Generator.generate (spec ()) in
  check_bool "same seed same trace" true (a.events = b.events);
  let c = Generator.generate (spec ~seed:6 ()) in
  check_bool "different seed differs" false (a.events = c.events)

let test_node_skew () =
  (* With Zipf skew, the busiest node should soak up far more than the
     uniform share of events. *)
  let log = Generator.generate (spec ~n_events:2000 ()) in
  let counts = Array.make 128 0 in
  Array.iter (fun (e : Bgl_trace.Failure_log.event) -> counts.(e.node) <- counts.(e.node) + 1) log.events;
  let max_count = Array.fold_left max 0 counts in
  let uniform_share = 2000 / 128 in
  check_bool
    (Printf.sprintf "max node count %d >> uniform %d" max_count uniform_share)
    true
    (max_count > 4 * uniform_share)

let test_uniform_baseline_not_skewed () =
  let log = Generator.poisson_uniform ~span:1e6 ~volume:128 ~n_events:2000 ~seed:5 in
  let counts = Array.make 128 0 in
  Array.iter (fun (e : Bgl_trace.Failure_log.event) -> counts.(e.node) <- counts.(e.node) + 1) log.events;
  let max_count = Array.fold_left max 0 counts in
  check_bool "uniform stays near uniform" true (max_count < 3 * (2000 / 128))

let test_burstiness () =
  (* Bursty traces have many near-simultaneous pairs; a uniform trace
     over the same span essentially none. Count consecutive gaps under
     a minute. *)
  let close_pairs (log : Bgl_trace.Failure_log.t) =
    let n = Bgl_trace.Failure_log.length log in
    let count = ref 0 in
    for i = 1 to n - 1 do
      if log.events.(i).time -. log.events.(i - 1).time < 60. then incr count
    done;
    !count
  in
  let bursty = close_pairs (Generator.generate (spec ~n_events:500 ())) in
  let uniform = close_pairs (Generator.poisson_uniform ~span:1e6 ~volume:128 ~n_events:500 ~seed:5) in
  check_bool
    (Printf.sprintf "bursty %d >> uniform %d" bursty uniform)
    true
    (bursty > (3 * uniform) + 20)

let test_uniform_times_pass_ks () =
  (* The uniform baseline's event times must be consistent with
     U(0, span); the bursty generator's must not. *)
  let times log =
    Array.map (fun (e : Bgl_trace.Failure_log.event) -> e.time) log.Bgl_trace.Failure_log.events
  in
  let uniform = Generator.poisson_uniform ~span:1e6 ~volume:128 ~n_events:800 ~seed:9 in
  check_bool "uniform passes" true
    (Bgl_stats.Ks.test ~samples:(times uniform) ~cdf:(Bgl_stats.Ks.uniform_cdf ~lo:0. ~hi:1e6)
       ~alpha:0.01);
  let bursty = Generator.generate (spec ~n_events:800 ~seed:9 ()) in
  (* bursty times are still roughly uniform at burst level, but the
     within-burst clustering shows up in the KS distance; assert only
     that the uniform trace is at least as close to uniformity *)
  let d log = Bgl_stats.Ks.statistic ~samples:(times log) ~cdf:(Bgl_stats.Ks.uniform_cdf ~lo:0. ~hi:1e6) in
  check_bool "bursty is no closer to uniform" true (d bursty >= d uniform -. 0.01)

(* Each bad field must be caught by [validate] itself, not downstream
   (a negative jitter used to surface as a Failure_log error). *)
let test_validation () =
  let invalid s msg =
    check_bool msg true
      (try
         ignore (Generator.generate s);
         false
       with Invalid_argument m -> String.starts_with ~prefix:"Generator: " m)
  in
  invalid { (spec ()) with span = 0. } "zero span";
  invalid { (spec ()) with volume = 0 } "zero volume";
  invalid { (spec ()) with n_events = -1 } "negative events";
  invalid { (spec ()) with burst_mean_size = 0.5 } "burst < 1";
  invalid { (spec ()) with node_skew = -1. } "negative skew";
  invalid { (spec ()) with span = Float.nan } "NaN span";
  invalid { (spec ()) with span = Float.infinity } "infinite span";
  invalid { (spec ()) with burst_jitter = Float.nan } "NaN jitter";
  invalid { (spec ()) with burst_jitter = -1. } "negative jitter";
  invalid { (spec ()) with burst_jitter = Float.infinity } "infinite jitter";
  invalid { (spec ()) with node_skew = Float.nan } "NaN skew";
  invalid { (spec ()) with burst_mean_size = Float.nan } "NaN burst size";
  invalid { (spec ()) with burst_mean_size = Float.infinity } "infinite burst size"

(* Traces pinned by MD5, recorded on the linear-scan node sampler:
   any change to the index rule, the Zipf table or the stream split
   shows here. One digest per (volume, skew) covers seeds 1-3. *)
let digest logs =
  Digest.to_hex (Digest.string (String.concat "" (List.map Bgl_trace.Failure_log.to_string logs)))

let golden_traces =
  [
    (1, 0., "56fa58130ec6d3934a6bbe4b96aed342");
    (1, 1.4, "56fa58130ec6d3934a6bbe4b96aed342");
    (1, 12., "56fa58130ec6d3934a6bbe4b96aed342");
    (7, 0., "2737da5a6dda52992b0a080d4e039a5c");
    (7, 1.4, "5e887d59e6127659f47047ee52b4b3a9");
    (7, 12., "80e1b36ff62ceae5482612288954c1c8");
    (128, 0., "ba831230ee786021faca93abadfe7c78");
    (128, 1.4, "e86bde44f81b3cde2622f1dc3d42cd02");
    (128, 12., "f218c7ba2890c804c37bc2e8f179230d");
    (4096, 0., "8080a90c714155f6ace3753ec29314c8");
    (4096, 1.4, "2e4aa574ccc32e1f8de3900384dd47a9");
    (4096, 12., "344632b9e5fb5928efea83f78bdfe459");
    (65536, 0., "c7196f74886f2c50cdba28dc236a2b9b");
    (65536, 1.4, "af7c1941e82e53ac91607ba701706733");
    (65536, 12., "9ae64333af0059dcce2f5d860ef4ed39");
  ]

let test_golden_digests () =
  List.iter
    (fun (volume, node_skew, expected) ->
      let logs =
        List.map
          (fun seed -> Generator.generate { (spec ~n_events:250 ~volume ~seed ()) with node_skew })
          [ 1; 2; 3 ]
      in
      Alcotest.(check string) (Printf.sprintf "volume %d skew %g" volume node_skew) expected (digest logs))
    golden_traces;
  Alcotest.(check string) "poisson_uniform" "a69518e05f71a3bd6a304d450fe41d78"
    (digest [ Generator.poisson_uniform ~span:1e6 ~volume:65536 ~n_events:500 ~seed:4 ])

(* The Zipf table cache is one cell shared by every domain.
   Interleaving two volumes keeps replacing it while the other domain
   reads; every trace must still equal its sequential twin. *)
let test_cache_across_domains () =
  let specs =
    Array.init 24 (fun i -> spec ~n_events:40 ~volume:(if i mod 2 = 0 then 128 else 65536) ~seed:i ())
  in
  let sequential = Array.map Generator.generate specs in
  let outcomes, _ =
    Pool_helpers.with_pool ~domains:2 (fun pool ->
        Bgl_parallel.Pool.map_supervised pool Generator.generate specs)
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Bgl_resilience.Supervise.Completed { value; _ } ->
          check_bool (Printf.sprintf "trace %d" i) true (value.Bgl_trace.Failure_log.events = sequential.(i).events)
      | Bgl_resilience.Supervise.Quarantined _ -> Alcotest.failf "trace %d quarantined" i)
    outcomes

(* ------------------------------------------------------------------ *)

let prop_generator_invariants =
  QCheck.Test.make ~name:"generator count/span/node invariants" ~count:50
    QCheck.(triple (int_range 0 300) (int_range 1 64) small_int)
    (fun (n_events, volume, seed) ->
      let log = Generator.generate (Generator.default ~span:1e5 ~volume ~n_events ~seed) in
      Bgl_trace.Failure_log.length log = n_events
      && Array.for_all
           (fun (e : Bgl_trace.Failure_log.event) ->
             e.time >= 0. && e.time <= 1e5 && e.node >= 0 && e.node < volume)
           log.events)

let props = List.map QCheck_alcotest.to_alcotest [ prop_generator_invariants ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_failure"
    [
      ( "generator",
        [
          tc "exact count" test_exact_count;
          tc "within span" test_within_span;
          tc "nodes within volume" test_nodes_within_volume;
          tc "deterministic" test_deterministic;
          tc "node skew" test_node_skew;
          tc "uniform baseline" test_uniform_baseline_not_skewed;
          tc "burstiness" test_burstiness;
          tc "uniform KS" test_uniform_times_pass_ks;
          tc "validation" test_validation;
          tc "golden digests" test_golden_digests;
          tc "cache across domains" test_cache_across_domains;
        ] );
      ("properties", props);
    ]
