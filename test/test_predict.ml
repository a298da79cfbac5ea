(* Tests for the failure index and the predictors of Section 4. *)

open Bgl_predict

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let log_of events =
  Bgl_trace.Failure_log.make ~name:"t"
    (List.map (fun (time, node) -> { Bgl_trace.Failure_log.time; node }) events)

let index_of events = Failure_index.of_log (log_of events)

(* ------------------------------------------------------------------ *)
(* Failure_index *)

let test_index_window_queries () =
  let idx = index_of [ (100., 3); (200., 3); (150., 7) ] in
  check_bool "event inside window" true (Failure_index.has_failure_in idx ~node:3 ~t0:50. ~t1:150.);
  check_bool "window excludes t0" false (Failure_index.has_failure_in idx ~node:3 ~t0:100. ~t1:150.);
  check_bool "window includes t1" true (Failure_index.has_failure_in idx ~node:3 ~t0:150. ~t1:200.);
  check_bool "other node" true (Failure_index.has_failure_in idx ~node:7 ~t0:0. ~t1:1000.);
  check_bool "unknown node" false (Failure_index.has_failure_in idx ~node:9 ~t0:0. ~t1:1000.);
  check_bool "inverted window" false (Failure_index.has_failure_in idx ~node:3 ~t0:300. ~t1:100.)

let test_index_first_and_count () =
  let idx = index_of [ (100., 3); (200., 3); (300., 3) ] in
  Alcotest.(check (option (float 1e-9))) "first" (Some 200.)
    (Failure_index.first_failure_in idx ~node:3 ~t0:100. ~t1:1000.);
  check_int "count" 2 (Failure_index.count_in idx ~node:3 ~t0:100. ~t1:1000.);
  check_int "count all" 3 (Failure_index.count_in idx ~node:3 ~t0:0. ~t1:1000.)

let test_index_next_event () =
  let idx = index_of [ (100., 3); (200., 7) ] in
  Alcotest.(check (option (pair (float 1e-9) int))) "next after 0" (Some (100., 3))
    (Failure_index.next_event_after idx ~after:0.);
  Alcotest.(check (option (pair (float 1e-9) int))) "next after 100" (Some (200., 7))
    (Failure_index.next_event_after idx ~after:100.);
  Alcotest.(check (option (pair (float 1e-9) int))) "none" None
    (Failure_index.next_event_after idx ~after:200.)

let test_index_events_at () =
  let idx = index_of [ (100., 3); (100., 7); (200., 1) ] in
  Alcotest.(check (list int)) "burst members" [ 3; 7 ] (Failure_index.events_at idx ~time:100.)

(* ------------------------------------------------------------------ *)
(* Predictors *)

let test_null_predictor () =
  check_float "prob" 0. (Predictor.null.node_prob ~node:0 ~now:0. ~horizon:1e9);
  check_bool "bool" false (Predictor.null.node_will_fail ~node:0 ~now:0. ~horizon:1e9)

let test_balancing_predictor () =
  let idx = index_of [ (100., 3) ] in
  let p = Predictor.balancing ~confidence:0.3 idx in
  check_float "failure coming" 0.3 (p.node_prob ~node:3 ~now:0. ~horizon:200.);
  check_float "failure past window" 0. (p.node_prob ~node:3 ~now:0. ~horizon:50.);
  check_float "failure already happened" 0. (p.node_prob ~node:3 ~now:150. ~horizon:1000.);
  check_float "other node" 0. (p.node_prob ~node:4 ~now:0. ~horizon:200.);
  check_bool "bool view" true (p.node_will_fail ~node:3 ~now:0. ~horizon:200.)

let test_balancing_zero_confidence () =
  let idx = index_of [ (100., 3) ] in
  let p = Predictor.balancing ~confidence:0. idx in
  check_float "prob 0" 0. (p.node_prob ~node:3 ~now:0. ~horizon:200.);
  check_bool "never yes" false (p.node_will_fail ~node:3 ~now:0. ~horizon:200.)

let test_predictor_param_validation () =
  let idx = index_of [] in
  check_bool "confidence out of range" true
    (try
       ignore (Predictor.balancing ~confidence:1.5 idx);
       false
     with Invalid_argument _ -> true);
  check_bool "accuracy out of range" true
    (try
       ignore (Predictor.tie_breaking ~accuracy:(-0.1) ~seed:0 idx);
       false
     with Invalid_argument _ -> true)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_confidence_not_nan () =
  check_bool "confidence NaN" true
    (raises_invalid (fun () -> Predictor.balancing ~confidence:Float.nan (index_of [])))

let test_accuracy_not_nan () =
  check_bool "accuracy NaN" true
    (raises_invalid (fun () -> Predictor.tie_breaking ~accuracy:Float.nan ~seed:0 (index_of [])))

let test_tie_breaking_no_false_positives () =
  let idx = index_of [ (100., 3) ] in
  let p = Predictor.tie_breaking ~accuracy:1.0 ~seed:1 idx in
  (* Nodes without upcoming failures are never flagged, whatever the
     accuracy. *)
  for node = 0 to 20 do
    if node <> 3 then check_bool "no false positive" false (p.node_will_fail ~node ~now:0. ~horizon:500.)
  done

let test_tie_breaking_consistency () =
  let idx = index_of [ (100., 3) ] in
  let p = Predictor.tie_breaking ~accuracy:0.5 ~seed:1 idx in
  let first = p.node_will_fail ~node:3 ~now:0. ~horizon:200. in
  for _ = 1 to 10 do
    check_bool "same query same answer" first (p.node_will_fail ~node:3 ~now:0. ~horizon:200.)
  done

let test_tie_breaking_false_negative_rate () =
  (* Over many distinct failure events, the yes-rate approaches the
     accuracy. *)
  let events = List.init 2000 (fun i -> (float_of_int (100 + i), i mod 64)) in
  let idx = index_of events in
  let p = Predictor.tie_breaking ~accuracy:0.7 ~seed:2 idx in
  let yes = ref 0 in
  List.iter
    (fun (t, node) -> if p.node_will_fail ~node ~now:(t -. 1.) ~horizon:2. then incr yes)
    events;
  let rate = float_of_int !yes /. 2000. in
  check_bool (Printf.sprintf "yes rate %.3f near 0.7" rate) true (abs_float (rate -. 0.7) < 0.04)

let test_oracle () =
  let idx = index_of [ (100., 3) ] in
  let p = Predictor.oracle idx in
  check_bool "sees failure" true (p.node_will_fail ~node:3 ~now:0. ~horizon:200.);
  check_bool "no hallucination" false (p.node_will_fail ~node:4 ~now:0. ~horizon:200.);
  check_float "prob 1" 1. (p.node_prob ~node:3 ~now:0. ~horizon:200.)

let test_noisy_false_positive_rate () =
  let idx = index_of [] in
  let p = Predictor.noisy ~accuracy:1.0 ~false_positive:0.2 ~seed:3 idx in
  let yes = ref 0 in
  let trials = 3000 in
  for i = 0 to trials - 1 do
    (* distinct hour buckets so draws are independent *)
    if p.node_will_fail ~node:(i mod 64) ~now:(float_of_int i *. 3600.) ~horizon:1800. then incr yes
  done;
  let rate = float_of_int !yes /. float_of_int trials in
  check_bool (Printf.sprintf "fp rate %.3f near 0.2" rate) true (abs_float (rate -. 0.2) < 0.03)

let test_noisy_true_positive_unaffected () =
  let idx = index_of [ (100., 3) ] in
  let p = Predictor.noisy ~accuracy:1.0 ~false_positive:0.5 ~seed:3 idx in
  check_bool "true failure seen" true (p.node_will_fail ~node:3 ~now:0. ~horizon:200.)

let test_partition_prob_product_and_max () =
  let idx = index_of [ (100., 0); (100., 1) ] in
  let p = Predictor.balancing ~confidence:0.5 idx in
  let args = (0., 200.) in
  let now, horizon = args in
  check_float "product over two doomed nodes" 0.75
    (Predictor.partition_prob p ~combine:`Product ~nodes:[ 0; 1; 2 ] ~now ~horizon);
  check_float "max over two doomed nodes" 0.5
    (Predictor.partition_prob p ~combine:`Max ~nodes:[ 0; 1; 2 ] ~now ~horizon);
  check_float "empty partition" 0.
    (Predictor.partition_prob p ~combine:`Product ~nodes:[] ~now ~horizon)

let test_partition_will_fail () =
  let idx = index_of [ (100., 5) ] in
  let p = Predictor.oracle idx in
  check_bool "any doomed node dooms partition" true
    (Predictor.partition_will_fail p ~nodes:[ 1; 5; 9 ] ~now:0. ~horizon:200.);
  check_bool "safe partition" false
    (Predictor.partition_will_fail p ~nodes:[ 1; 2; 9 ] ~now:0. ~horizon:200.)

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let test_evaluation_oracle_perfect () =
  let idx = index_of [ (100., 3); (500., 7); (900., 3) ] in
  let r =
    Evaluation.probe (Predictor.oracle idx) ~truth:idx ~span:1000. ~horizon:50. ~nodes:10
      ~samples:100
  in
  check_float "precision" 1. r.precision;
  check_float "recall" 1. r.recall;
  check_float "fpr" 0. r.false_positive_rate;
  check_float "accuracy" 1. r.accuracy

let test_evaluation_null_predictor () =
  let idx = index_of [ (100., 3) ] in
  let r = Evaluation.probe Predictor.null ~truth:idx ~span:1000. ~horizon:50. ~nodes:10 ~samples:100 in
  check_int "no positives at all" 0 (r.counts.true_positive + r.counts.false_positive);
  check_float "fpr 0" 0. r.false_positive_rate;
  check_bool "recall < 1 (missed the failure)" true (r.recall < 1.)

let test_evaluation_tie_breaking_recall () =
  let events = List.init 500 (fun i -> (float_of_int (i * 17 mod 10_000), i mod 32)) in
  let idx = index_of events in
  let p = Predictor.tie_breaking ~accuracy:0.6 ~seed:4 idx in
  let r = Evaluation.probe p ~truth:idx ~span:10_000. ~horizon:100. ~nodes:32 ~samples:300 in
  check_float "no false positives" 0. r.false_positive_rate;
  check_bool (Printf.sprintf "recall %.3f near 0.6" r.recall) true (abs_float (r.recall -. 0.6) < 0.08)

let test_evaluation_of_counts_edge_cases () =
  let r = Evaluation.of_counts { true_positive = 0; false_positive = 0; true_negative = 0; false_negative = 0 } in
  check_float "empty precision defaults to 1" 1. r.precision;
  check_float "empty recall defaults to 1" 1. r.recall;
  check_float "empty accuracy defaults to 1" 1. r.accuracy

let test_evaluation_invalid () =
  let idx = index_of [] in
  check_bool "bad span" true
    (try
       ignore (Evaluation.probe Predictor.null ~truth:idx ~span:0. ~horizon:1. ~nodes:1 ~samples:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* History predictors *)

let chronic_trace =
  (* node 0 fails every 100 s; node 1 is quiet. *)
  index_of (List.init 50 (fun i -> (float_of_int (i * 100), 0)))

let test_history_rate_flags_chronic_node () =
  let p = History.rate ~window:1000. ~threshold:0.5 chronic_trace in
  check_bool "chronic node flagged" true (p.node_will_fail ~node:0 ~now:5000. ~horizon:100.);
  check_bool "quiet node not flagged" false (p.node_will_fail ~node:1 ~now:5000. ~horizon:100.)

let test_history_rate_uses_only_past () =
  (* All failures are in the future: nothing in the window, no alarm. *)
  let idx = index_of (List.init 10 (fun i -> (float_of_int (9000 + i), 0))) in
  let p = History.rate ~window:1000. ~threshold:0.01 idx in
  check_bool "future events invisible" false (p.node_will_fail ~node:0 ~now:500. ~horizon:100.)

let test_history_rate_prob_bounded () =
  let p = History.rate ~window:1000. ~threshold:0.5 chronic_trace in
  let prob = p.node_prob ~node:0 ~now:5000. ~horizon:1e9 in
  check_float "capped at 1" 1. prob;
  check_float "quiet node prob 0" 0. (p.node_prob ~node:1 ~now:5000. ~horizon:1e9)

let test_history_ewma_decays () =
  (* A node that failed often long ago: a short half-life forgets it,
     a long one remembers. *)
  let idx = index_of (List.init 20 (fun i -> (float_of_int (i * 50), 0))) in
  let now = 100_000. in
  let short = History.ewma ~half_life:500. ~threshold:0.001 idx in
  let long = History.ewma ~half_life:200_000. ~threshold:0.001 idx in
  check_bool "short half-life forgot" false (short.node_will_fail ~node:0 ~now ~horizon:1000.);
  check_bool "long half-life remembers" true (long.node_will_fail ~node:0 ~now ~horizon:1000.)

let test_history_validation () =
  check_bool "bad window" true
    (try
       ignore (History.rate ~window:0. ~threshold:0.1 chronic_trace);
       false
     with Invalid_argument _ -> true);
  check_bool "bad threshold" true
    (try
       ignore (History.ewma ~half_life:10. ~threshold:(-1.) chronic_trace);
       false
     with Invalid_argument _ -> true)

let test_history_not_nan () =
  List.iter
    (fun v ->
      check_bool "window" true
        (raises_invalid (fun () -> History.rate ~window:v ~threshold:0.1 chronic_trace));
      check_bool "half_life" true
        (raises_invalid (fun () -> History.ewma ~half_life:v ~threshold:0.1 chronic_trace)))
    [ Float.nan; infinity ];
  check_bool "threshold" true
    (raises_invalid (fun () -> History.ewma ~half_life:10. ~threshold:Float.nan chronic_trace))

let test_history_beats_chance_on_skewed_trace () =
  (* On a skewed synthetic trace the learned predictor must have
     recall well above the fraction of flagged probes (i.e. it finds
     failures better than random flagging would). *)
  let log =
    Bgl_failure.Generator.generate
      (Bgl_failure.Generator.default ~span:1e6 ~volume:64 ~n_events:600 ~seed:8)
  in
  let idx = Failure_index.of_log log in
  let p = History.ewma ~half_life:200_000. ~threshold:0.02 idx in
  let r = Evaluation.probe p ~truth:idx ~span:1e6 ~horizon:3600. ~nodes:64 ~samples:300 in
  let flagged_fraction =
    float_of_int (r.counts.true_positive + r.counts.false_positive)
    /. float_of_int
         (r.counts.true_positive + r.counts.false_positive + r.counts.true_negative
        + r.counts.false_negative)
  in
  check_bool
    (Printf.sprintf "recall %.3f > flagged fraction %.3f" r.recall flagged_fraction)
    true
    (r.recall > flagged_fraction +. 0.1)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_index_agrees_with_scan =
  QCheck.Test.make ~name:"index window queries agree with direct scan" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 40) (pair (float_bound_inclusive 1000.) (int_range 0 9)))
        (pair (float_bound_inclusive 1000.) (float_bound_inclusive 1000.)))
    (fun (events, (t0, t1)) ->
      let idx = index_of events in
      List.for_all
        (fun node ->
          let direct = List.exists (fun (t, n) -> n = node && t > t0 && t <= t1) events in
          Failure_index.has_failure_in idx ~node ~t0 ~t1 = direct
          && Failure_index.count_in idx ~node ~t0 ~t1
             = List.length (List.filter (fun (t, n) -> n = node && t > t0 && t <= t1) events))
        (List.init 10 Fun.id))

let prop_tie_breaking_subset_of_oracle =
  QCheck.Test.make ~name:"tie-breaking yes implies oracle yes" ~count:100
    QCheck.(
      triple small_int
        (list_of_size Gen.(int_range 0 30) (pair (float_bound_inclusive 1000.) (int_range 0 9)))
        (float_bound_inclusive 1.))
    (fun (seed, events, accuracy) ->
      let idx = index_of events in
      let tb = Predictor.tie_breaking ~accuracy ~seed idx in
      let oracle = Predictor.oracle idx in
      List.for_all
        (fun node ->
          List.for_all
            (fun now ->
              (not (tb.node_will_fail ~node ~now ~horizon:100.))
              || oracle.node_will_fail ~node ~now ~horizon:100.)
            [ 0.; 250.; 500.; 900. ])
        (List.init 10 Fun.id))

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_index_agrees_with_scan; prop_tie_breaking_subset_of_oracle ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_predict"
    [
      ( "failure_index",
        [
          tc "window queries" test_index_window_queries;
          tc "first and count" test_index_first_and_count;
          tc "next event" test_index_next_event;
          tc "events_at" test_index_events_at;
        ] );
      ( "predictor",
        [
          tc "null" test_null_predictor;
          tc "balancing" test_balancing_predictor;
          tc "balancing a=0" test_balancing_zero_confidence;
          tc "param validation" test_predictor_param_validation;
          tc "tie-breaking no false positives" test_tie_breaking_no_false_positives;
          tc "tie-breaking consistency" test_tie_breaking_consistency;
          tc "tie-breaking false-negative rate" test_tie_breaking_false_negative_rate;
          tc "oracle" test_oracle;
          tc "noisy false positives" test_noisy_false_positive_rate;
          tc "noisy true positives" test_noisy_true_positive_unaffected;
          tc "partition prob" test_partition_prob_product_and_max;
          tc "partition will fail" test_partition_will_fail;
        ] );
      ( "evaluation",
        [
          tc "oracle perfect" test_evaluation_oracle_perfect;
          tc "null predictor" test_evaluation_null_predictor;
          tc "tie-breaking recall" test_evaluation_tie_breaking_recall;
          tc "of_counts edge cases" test_evaluation_of_counts_edge_cases;
          tc "invalid args" test_evaluation_invalid;
        ] );
      ( "history",
        [
          tc "rate flags chronic node" test_history_rate_flags_chronic_node;
          tc "rate uses only past" test_history_rate_uses_only_past;
          tc "rate prob bounded" test_history_rate_prob_bounded;
          tc "ewma decays" test_history_ewma_decays;
          tc "validation" test_history_validation;
          tc "beats chance on skewed trace" test_history_beats_chance_on_skewed_trace;
        ] );
      ("properties", props);
      ( "validation",
        [
          tc "confidence not NaN" test_confidence_not_nan;
          tc "accuracy not NaN" test_accuracy_not_nan;
          tc "history parameters not NaN or infinite" test_history_not_nan;
        ] );
    ]
