(* Tests for the simulation engine: event queue, checkpoint arithmetic,
   job lifecycle, hand-computed metric values, failure semantics, and
   whole-simulation invariants as properties. *)

open Bgl_torus
open Bgl_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_eq_order () =
  let q = Event_queue.create () in
  List.iter (fun (t, v) -> Event_queue.push q ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  let popped = List.init 3 (fun _ -> Option.get (Event_queue.pop q)) in
  Alcotest.(check (list (pair (float 0.) string)))
    "time order"
    [ (1., "a"); (2., "b"); (3., "c") ]
    popped;
  check_bool "empty" true (Event_queue.is_empty q)

let test_eq_fifo_on_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~time:5. v) [ 1; 2; 3; 4 ];
  let popped = List.init 4 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order on equal times" [ 1; 2; 3; 4 ] popped

let test_eq_pop_if_at () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:1. "b";
  Event_queue.push q ~time:2. "c";
  Alcotest.(check (option string)) "match" (Some "a") (Event_queue.pop_if_at q ~time:1.);
  Alcotest.(check (option string)) "again" (Some "b") (Event_queue.pop_if_at q ~time:1.);
  Alcotest.(check (option string)) "no match" None (Event_queue.pop_if_at q ~time:1.);
  check_int "c remains" 1 (Event_queue.size q)

let test_eq_nan_rejected () =
  let q = Event_queue.create () in
  check_bool "nan" true
    (try
       Event_queue.push q ~time:Float.nan "x";
       false
     with Invalid_argument _ -> true)

let test_eq_no_leak () =
  (* Regression: popping used to leave the entry behind in the backing
     array (slots >= len), pinning every popped payload for the queue's
     lifetime. *)
  let q = Event_queue.create () in
  let payloads = List.init 32 (fun i -> ref i) in
  List.iteri (fun i p -> Event_queue.push q ~time:(float_of_int i) p) payloads;
  let popped, live =
    let rec split i acc = function
      | [] -> (List.rev acc, [])
      | rest when i = 0 -> (List.rev acc, rest)
      | p :: rest -> split (i - 1) (p :: acc) rest
    in
    split 20 [] payloads
  in
  List.iter (fun p -> assert (Option.get (Event_queue.pop q) |> snd == p)) popped;
  List.iter
    (fun p -> check_bool "popped payload released" false (Event_queue.retains q p))
    popped;
  List.iter (fun p -> check_bool "live payload retained" true (Event_queue.retains q p)) live;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop q)
  done;
  List.iter
    (fun p -> check_bool "drained payload released" false (Event_queue.retains q p))
    payloads

let prop_eq_heap_order =
  QCheck.Test.make ~name:"event queue pops in (time, seq) order" ~count:200
    QCheck.(list (float_bound_inclusive 100.))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
      let rec drain acc =
        match Event_queue.pop q with None -> List.rev acc | Some (t, i) -> drain ((t, i) :: acc)
      in
      let popped = drain [] in
      let rec ordered = function
        | [] | [ _ ] -> true
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
      in
      List.length popped = List.length times && ordered popped)

(* ------------------------------------------------------------------ *)
(* Checkpoint arithmetic *)

let test_checkpoint_counts () =
  check_int "no work" 0 (Checkpoint.checkpoints_for_work ~interval:10. ~work:0.);
  check_int "less than interval" 0 (Checkpoint.checkpoints_for_work ~interval:10. ~work:5.);
  check_int "exact multiple skips final" 2 (Checkpoint.checkpoints_for_work ~interval:10. ~work:30.);
  check_int "10/3" 3 (Checkpoint.checkpoints_for_work ~interval:3. ~work:10.)

let test_checkpoint_wall_time () =
  check_float "no checkpoints" 5. (Checkpoint.wall_time ~interval:10. ~overhead:2. ~work:5.);
  check_float "3 checkpoints" (10. +. 6.) (Checkpoint.wall_time ~interval:3. ~overhead:2. ~work:10.)

let test_checkpoint_persisted () =
  (* interval 10, overhead 2: checkpoint k completes at 12k elapsed. *)
  check_float "before first" 0. (Checkpoint.persisted_at ~interval:10. ~overhead:2. ~work:100. ~elapsed:11.);
  check_float "after first" 10. (Checkpoint.persisted_at ~interval:10. ~overhead:2. ~work:100. ~elapsed:12.);
  check_float "after third" 30. (Checkpoint.persisted_at ~interval:10. ~overhead:2. ~work:100. ~elapsed:40.);
  (* capped at the number of checkpoints the job actually takes *)
  check_float "capped" 10. (Checkpoint.persisted_at ~interval:10. ~overhead:2. ~work:15. ~elapsed:1000.);
  check_float "non-positive elapsed" 0. (Checkpoint.persisted_at ~interval:10. ~overhead:2. ~work:100. ~elapsed:0.)

let test_checkpoint_interval_for () =
  let adaptive = Checkpoint.Adaptive { risky_interval = 5.; safe_interval = 50.; overhead = 1. } in
  check_float "risky" 5. (Checkpoint.interval_for adaptive ~risky:true);
  check_float "safe" 50. (Checkpoint.interval_for adaptive ~risky:false);
  check_float "periodic ignores risk" 7.
    (Checkpoint.interval_for (Checkpoint.Periodic { interval = 7.; overhead = 1. }) ~risky:true)

let test_young_interval () =
  check_float "sqrt(2*o*mtbf)" (sqrt (2. *. 60. *. 86400.))
    (Checkpoint.young_interval ~mtbf:86400. ~overhead:60.);
  check_bool "invalid" true
    (try
       ignore (Checkpoint.young_interval ~mtbf:0. ~overhead:1.);
       false
     with Invalid_argument _ -> true)

let test_mtbf_of_failures () =
  (* 100 failures over 1e6 s on 128 nodes, jobs of 16 nodes: a job is
     hit every 1e6 * 128 / (100 * 16) = 80k seconds. *)
  check_float "per-job mtbf" 80_000.
    (Checkpoint.mtbf_of_failures ~events:100 ~span:1e6 ~nodes_per_job:16. ~volume:128)

let test_checkpoint_validate () =
  check_bool "bad interval" true
    (try
       Checkpoint.validate (Checkpoint.Periodic { interval = 0.; overhead = 1. });
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine: hand-built scenarios *)

let mk_job ~id ~arrival ~size ~run_time =
  { Bgl_trace.Job_log.id; arrival; size; run_time; estimate = run_time }

(* ------------------------------------------------------------------ *)
(* Job lifecycle protocol: the full 3x4 (state, edge) matrix. The four
   legal cells apply and land in the right state; the eight illegal
   ones raise Illegal_transition and leave the job untouched. *)

let mk_run () =
  {
    Job.box = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2);
    started = 0.;
    finish_time = 10.;
    generation = 0;
    work_at_start = 10.;
    interval = None;
  }

let job_in state =
  let j = Job.create (mk_job ~id:7 ~arrival:0. ~size:8 ~run_time:10.) ~volume:8 in
  (match state with
  | `Queued -> ()
  | `Running -> Job.transition j (Job.Start (mk_run ()))
  | `Completed ->
      Job.transition j (Job.Start (mk_run ()));
      Job.transition j Job.Complete);
  j

let state_name = function `Queued -> "queued" | `Running -> "running" | `Completed -> "completed"

let test_transition_matrix () =
  let edges () =
    [
      ("start", Job.Start (mk_run ()));
      ("migrate", Job.Migrate (mk_run ()));
      ("complete", Job.Complete);
      ("kill", Job.Kill);
    ]
  in
  let legal_cells =
    [ (`Queued, "start"); (`Running, "migrate"); (`Running, "complete"); (`Running, "kill") ]
  in
  List.iter
    (fun state ->
      List.iter
        (fun (edge_name, edge) ->
          let cell = Printf.sprintf "%s --%s-->" (state_name state) edge_name in
          let expect = List.mem (state, edge_name) legal_cells in
          let j = job_in state in
          check_bool (cell ^ " table") expect (Job.legal j.state edge);
          match Job.transition j edge with
          | () -> check_bool (cell ^ " applied") true expect
          | exception Job.Illegal_transition { job; _ } ->
              check_bool (cell ^ " rejected") false expect;
              check_int (cell ^ " names the job") 7 job;
              check_bool (cell ^ " state untouched") true (j.state = (job_in state).state))
        (edges ()))
    [ `Queued; `Running; `Completed ]

let test_transition_targets () =
  (* Each legal edge lands in the documented state, and a killed job
     can be restarted: the queued -> running -> queued -> running cycle
     is the engine's failure-restart path. *)
  let j = job_in `Queued in
  Job.transition j (Job.Start (mk_run ()));
  check_bool "start -> running" true (Job.is_running j);
  Job.transition j (Job.Migrate (mk_run ()));
  check_bool "migrate -> running" true (Job.is_running j);
  Job.transition j Job.Kill;
  check_bool "kill -> queued" true (Job.is_queued j);
  Job.transition j (Job.Start (mk_run ()));
  check_bool "restart after kill" true (Job.is_running j);
  Job.transition j Job.Complete;
  check_bool "complete -> completed" true (Job.is_completed j);
  check_bool "completed is terminal" false
    (List.exists
       (fun e -> Job.legal j.state e)
       [ Job.Start (mk_run ()); Job.Migrate (mk_run ()); Job.Complete; Job.Kill ])

let mk_log jobs = Bgl_trace.Job_log.make ~name:"test" jobs
let no_failures = Bgl_trace.Failure_log.make ~name:"none" []

let mk_failures events =
  Bgl_trace.Failure_log.make ~name:"test-failures"
    (List.map (fun (time, node) -> { Bgl_trace.Failure_log.time; node }) events)

let run ?config ?(policy = Bgl_sched.Placement.first_fit) ~log ~failures () =
  Engine.run ?config ~policy ~log ~failures ()

let test_single_job () =
  let log = mk_log [ mk_job ~id:0 ~arrival:100. ~size:8 ~run_time:1000. ] in
  let o = run ~log ~failures:no_failures () in
  check_bool "complete" true o.complete;
  let r = o.report in
  check_int "completed" 1 r.completed_jobs;
  check_float "wait" 0. r.avg_wait;
  check_float "response" 1000. r.avg_response;
  check_float "slowdown 1" 1. r.avg_bounded_slowdown;
  check_float "makespan" 1000. r.makespan;
  (* util: 8 nodes * 1000 s over 128 * 1000 s *)
  check_float "util" (8. /. 128.) r.util;
  check_float "unused (no queue demand)" (120. /. 128.) r.unused;
  check_float "lost" 0. r.lost

let test_two_jobs_sequential_on_full_machine () =
  (* Two whole-torus jobs: the second waits for the first. *)
  let log =
    mk_log
      [ mk_job ~id:0 ~arrival:0. ~size:128 ~run_time:100.; mk_job ~id:1 ~arrival:0. ~size:128 ~run_time:100. ]
  in
  let o = run ~log ~failures:no_failures () in
  let r = o.report in
  check_float "avg wait" 50. r.avg_wait;
  check_float "avg response" 150. r.avg_response;
  check_float "makespan" 200. r.makespan;
  check_float "util 1.0" 1. r.util;
  check_float "unused 0 (demand pending)" 0. r.unused

let test_parallel_jobs () =
  (* Two half-torus jobs run simultaneously. *)
  let log =
    mk_log
      [ mk_job ~id:0 ~arrival:0. ~size:64 ~run_time:100.; mk_job ~id:1 ~arrival:0. ~size:64 ~run_time:100. ]
  in
  let r = (run ~log ~failures:no_failures ()).report in
  check_float "no waiting" 0. r.avg_wait;
  check_float "makespan" 100. r.makespan;
  check_float "util 1.0" 1. r.util

let test_failure_kills_and_restarts () =
  (* One whole-torus job; a failure at t=40 kills it; it restarts and
     completes at 40 + 100. *)
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:128 ~run_time:100. ] in
  let o = run ~log ~failures:(mk_failures [ (40., 0) ]) () in
  let r = o.report in
  check_bool "complete" true o.complete;
  check_int "kills" 1 r.job_kills;
  check_int "restarts" 1 r.restarts;
  check_float "response includes rework" 140. r.avg_response;
  check_float "lost work" (128. *. 40.) r.lost_work;
  check_bool "lost capacity positive" true (r.lost > 0.)

let test_failure_on_free_node_harmless () =
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:1 ~run_time:100. ] in
  let o = run ~log ~failures:(mk_failures [ (50., 100) ]) () in
  check_int "no kills" 0 o.report.job_kills;
  check_float "response" 100. o.report.avg_response

let test_simultaneous_burst_kills_multiple_jobs () =
  (* Two 64-node jobs side by side; a burst at t=10 hits one node of
     each: both die. *)
  let log =
    mk_log
      [ mk_job ~id:0 ~arrival:0. ~size:64 ~run_time:100.; mk_job ~id:1 ~arrival:0. ~size:64 ~run_time:100. ]
  in
  let o = run ~log ~failures:(mk_failures [ (10., 0); (10., 127) ]) () in
  check_int "both killed" 2 o.report.job_kills;
  check_bool "both finish eventually" true o.complete

let test_repeated_failures_same_job () =
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:128 ~run_time:100. ] in
  let o = run ~log ~failures:(mk_failures [ (10., 0); (50., 1); (130., 2) ]) () in
  check_int "three kills" 3 o.report.job_kills;
  (* timeline: restart at 10, killed at 50 (40 in), restart, killed at
     130 (80 in), restart, completes at 230 *)
  check_float "response" 230. o.report.avg_response

let test_repair_time_blocks_node () =
  (* Whole-torus job arrives just after a failure; with repair time the
     node is down so the job must wait for the repair. *)
  let log = mk_log [ mk_job ~id:0 ~arrival:10. ~size:128 ~run_time:50. ] in
  let config = { Config.default with repair_time = 100. } in
  let o = run ~config ~log ~failures:(mk_failures [ (5., 3) ]) () in
  check_bool "complete" true o.complete;
  (* failure at 5, repair at 105, job starts then *)
  check_float "wait until repair" 95. o.report.avg_wait

let test_zero_repair_instant_reuse () =
  let log = mk_log [ mk_job ~id:0 ~arrival:10. ~size:128 ~run_time:50. ] in
  let o = run ~log ~failures:(mk_failures [ (5., 3) ]) () in
  check_float "no wait" 0. o.report.avg_wait

let test_checkpointed_job_resumes () =
  (* interval 20 + overhead 5: checkpoints complete at elapsed 25, 50...
     failure at elapsed 60 -> persisted 40, remaining 60. *)
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:128 ~run_time:100. ] in
  let config =
    { Config.default with checkpoint = Some (Checkpoint.Periodic { interval = 20.; overhead = 5. }) }
  in
  let o = run ~config ~log ~failures:(mk_failures [ (60., 0) ]) () in
  check_bool "complete" true o.complete;
  check_int "one kill" 1 o.report.job_kills;
  (* second run: work 60 -> ceil(60/20)-1 = 2 checkpoints -> wall 70;
     finishes at 60 + 70 = 130 *)
  check_float "response with resume" 130. o.report.avg_response;
  check_bool "checkpoints recorded" true (o.report.checkpoints > 0)

let test_checkpoint_overhead_without_failures () =
  (* work 100, interval 20, overhead 5 -> 4 checkpoints -> wall 120. *)
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:8 ~run_time:100. ] in
  let config =
    { Config.default with checkpoint = Some (Checkpoint.Periodic { interval = 20.; overhead = 5. }) }
  in
  let o = run ~config ~log ~failures:no_failures () in
  check_float "wall includes overhead" 120. o.report.avg_response;
  check_int "4 checkpoints" 4 o.report.checkpoints

let test_fcfs_order_without_backfill () =
  (* Three whole-torus jobs must run strictly in arrival order. *)
  let log =
    mk_log
      [
        mk_job ~id:0 ~arrival:0. ~size:128 ~run_time:10.;
        mk_job ~id:1 ~arrival:1. ~size:128 ~run_time:10.;
        mk_job ~id:2 ~arrival:2. ~size:128 ~run_time:10.;
      ]
  in
  let config = { Config.default with backfill = false } in
  let o = run ~config ~log ~failures:no_failures () in
  let starts =
    Array.to_list o.jobs
    |> List.map (fun (j : Job.t) -> (j.spec.id, Option.get j.first_start))
    |> List.sort compare
  in
  Alcotest.(check (list (pair int (float 1e-6)))) "strict FCFS" [ (0, 0.); (1, 10.); (2, 20.) ] starts

let test_queue_order_ties () =
  (* Three whole-torus jobs share one arrival time and are submitted out
     of id order; a fourth arrives earlier. The queue must serve them in
     (arrival, id) order regardless of submission order — the tie-break
     the set-backed queue encodes in its key. Backfill cannot reorder
     full-machine jobs, so both configurations must agree. *)
  let log =
    mk_log
      [
        mk_job ~id:5 ~arrival:10. ~size:128 ~run_time:10.;
        mk_job ~id:1 ~arrival:10. ~size:128 ~run_time:10.;
        mk_job ~id:3 ~arrival:10. ~size:128 ~run_time:10.;
        mk_job ~id:2 ~arrival:0. ~size:128 ~run_time:10.;
      ]
  in
  let start_order config =
    let o = run ~config ~log ~failures:no_failures () in
    Array.to_list o.jobs
    |> List.map (fun (j : Job.t) -> (Option.get j.first_start, j.spec.id))
    |> List.sort compare
  in
  let expected = [ (0., 2); (10., 1); (20., 3); (30., 5) ] in
  let check_starts msg got = Alcotest.(check (list (pair (float 1e-6) int))) msg expected got in
  check_starts "arrival then id, no backfill" (start_order { Config.default with backfill = false });
  check_starts "arrival then id, backfill on" (start_order Config.default)

let test_backfill_fills_hole () =
  (* Job 0 takes half the torus; job 1 wants the whole torus and must
     wait; job 2 is small and short: backfilling runs it in the hole
     without delaying job 1. *)
  let log =
    mk_log
      [
        mk_job ~id:0 ~arrival:0. ~size:64 ~run_time:100.;
        mk_job ~id:1 ~arrival:1. ~size:128 ~run_time:10.;
        mk_job ~id:2 ~arrival:2. ~size:8 ~run_time:50.;
      ]
  in
  let o = run ~log ~failures:no_failures () in
  let start id =
    Option.get
      (Array.to_list o.jobs
      |> List.find_map (fun (j : Job.t) -> if j.spec.id = id then j.first_start else None))
  in
  check_float "small job backfilled immediately" 2. (start 2);
  check_float "head job not delayed" 100. (start 1)

let test_backfill_respects_reservation () =
  (* Like above, but the backfill candidate is long: starting it
     anywhere would be fine spatially, but it would overlap the whole
     torus reservation of job 1 and outlive the shadow time... with
     size 64 it can only use the reserved space, so it must NOT start
     before job 1. *)
  let log =
    mk_log
      [
        mk_job ~id:0 ~arrival:0. ~size:64 ~run_time:100.;
        mk_job ~id:1 ~arrival:1. ~size:128 ~run_time:10.;
        mk_job ~id:2 ~arrival:2. ~size:64 ~run_time:5000.;
      ]
  in
  let o = run ~log ~failures:no_failures () in
  let start id =
    Option.get
      (Array.to_list o.jobs
      |> List.find_map (fun (j : Job.t) -> if j.spec.id = id then j.first_start else None))
  in
  check_float "head job starts on time" 100. (start 1);
  check_bool "long job waits for head" true (start 2 >= 110.)

let test_oversize_jobs_dropped () =
  let log =
    mk_log [ mk_job ~id:0 ~arrival:0. ~size:500 ~run_time:10.; mk_job ~id:1 ~arrival:0. ~size:1 ~run_time:10. ]
  in
  let o = run ~log ~failures:no_failures () in
  check_int "dropped" 1 o.dropped_jobs;
  check_int "admitted" 1 o.report.total_jobs;
  let config = { Config.default with drop_oversize = false } in
  check_bool "raises when configured" true
    (try
       ignore (run ~config ~log ~failures:no_failures ());
       false
     with Invalid_argument _ -> true)

let test_migration_defragments () =
  (* Fragmentation scenario on a 4-node line (no wraparound): jobs A
     and B occupy alternating cells; C needs 2 contiguous. Without
     migration C waits for a finish; with migration the machine
     repacks A and B so C starts immediately. *)
  let dims = Dims.make 4 1 1 in
  let config = { Config.default with dims; wrap = false; backfill = false } in
  (* Arrange occupancy (A at cell 0, B at cell 2) via sizes/arrivals:
     A size 1 arrives first, dummy D size 1 second (cell 1), B size 1
     third (cell 2)... first-fit fills 0,1,2. Then D finishes early,
     leaving holes at 1. C size 2 arrives: free cells are 1 and 3 -
     not contiguous. *)
  let log =
    mk_log
      [
        mk_job ~id:0 ~arrival:0. ~size:1 ~run_time:1000.;
        mk_job ~id:1 ~arrival:0. ~size:1 ~run_time:10.;
        mk_job ~id:2 ~arrival:0. ~size:1 ~run_time:1000.;
        mk_job ~id:3 ~arrival:20. ~size:2 ~run_time:10.;
      ]
  in
  let start outcome id =
    Array.to_list outcome.Engine.jobs
    |> List.find_map (fun (j : Job.t) -> if j.spec.id = id then j.first_start else None)
    |> Option.get
  in
  let without = run ~config ~log ~failures:no_failures () in
  check_float "blocked until a long job ends" 1000. (start without 3);
  let with_migration = run ~config:{ config with migration = true } ~log ~failures:no_failures () in
  check_float "starts immediately after repack" 20. (start with_migration 3);
  check_bool "migrations recorded" true (with_migration.report.migrations > 0)

let test_candidate_cap_still_schedules () =
  (* Capping candidate evaluation must not change completeness. *)
  let log =
    mk_log (List.init 30 (fun id -> mk_job ~id ~arrival:(float_of_int id) ~size:(1 + (id mod 16)) ~run_time:50.))
  in
  List.iter
    (fun cap ->
      let config = { Config.default with candidate_cap = cap } in
      let o = run ~config ~policy:Bgl_sched.Placement.mfp ~log ~failures:no_failures () in
      check_bool "complete" true o.complete)
    [ Some 1; Some 4; None ]

let test_no_wrap_config () =
  (* Wraparound off: the same workload still completes; boxes never
     wrap (checked indirectly by the engine's own grid assertions). *)
  let config = { Config.default with wrap = false } in
  let log =
    mk_log (List.init 20 (fun id -> mk_job ~id ~arrival:(float_of_int id) ~size:(1 + (id mod 32)) ~run_time:100.))
  in
  let o = run ~config ~log ~failures:(mk_failures [ (50., 3); (120., 7) ]) () in
  check_bool "complete" true o.complete

let test_backfill_depth_zero () =
  (* depth 0: backfilling scans nobody, so strict FCFS order holds even
     with backfill enabled. *)
  let config = { Config.default with backfill = true; backfill_depth = 0 } in
  let log =
    mk_log
      [
        mk_job ~id:0 ~arrival:0. ~size:64 ~run_time:100.;
        mk_job ~id:1 ~arrival:1. ~size:128 ~run_time:10.;
        mk_job ~id:2 ~arrival:2. ~size:1 ~run_time:5.;
      ]
  in
  let o = run ~config ~log ~failures:no_failures () in
  let start id =
    Option.get
      (Array.to_list o.jobs
      |> List.find_map (fun (j : Job.t) -> if j.spec.id = id then j.first_start else None))
  in
  check_bool "small job not backfilled" true (start 2 >= 110.)

let test_empty_log_runs () =
  let o = run ~log:(mk_log []) ~failures:no_failures () in
  check_int "no jobs" 0 o.report.total_jobs;
  check_bool "complete" true o.complete

let test_adaptive_checkpoint_uses_prediction () =
  (* One doomed whole-torus job: with an adaptive spec and an oracle
     predictor, the run checkpoints at the risky interval; with the
     null predictor it uses the safe (huge) interval and loses
     everything at the failure. *)
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:128 ~run_time:100. ] in
  let failures = mk_failures [ (60., 0) ] in
  let config =
    {
      Config.default with
      checkpoint =
        Some (Checkpoint.Adaptive { risky_interval = 20.; safe_interval = 1e6; overhead = 5. });
    }
  in
  let index =
    Bgl_predict.Failure_index.of_log
      (Bgl_trace.Failure_log.make ~name:"t" [ { Bgl_trace.Failure_log.time = 60.; node = 0 } ])
  in
  let with_oracle =
    Engine.run ~config ~predictor:(Bgl_predict.Predictor.oracle index)
      ~policy:Bgl_sched.Placement.first_fit ~log ~failures ()
  in
  let with_null = Engine.run ~config ~policy:Bgl_sched.Placement.first_fit ~log ~failures () in
  (* oracle: the first run is flagged risky, checkpointing every 20 s
     of work (25 s wall each); the failure at 60 leaves 40 s persisted.
     The restart's window (60, 160] no longer contains the (spent)
     event, so it runs safe with no checkpoints: 60 + 60 = 120.
     null: nothing persisted, restart from scratch: 60 + 100 = 160. *)
  check_float "oracle-driven resume" 120. with_oracle.report.avg_response;
  check_float "null predictor restarts from zero" 160. with_null.report.avg_response;
  check_bool "oracle run checkpoints more" true
    (with_oracle.report.checkpoints > with_null.report.checkpoints)

(* ------------------------------------------------------------------ *)
(* Recorder *)

let test_recorder_lifecycle () =
  let log = mk_log [ mk_job ~id:7 ~arrival:0. ~size:128 ~run_time:100. ] in
  let recorder = Recorder.create () in
  let _ =
    Engine.run ~recorder ~policy:Bgl_sched.Placement.first_fit ~log
      ~failures:(mk_failures [ (40., 3) ]) ()
  in
  (* meta, arrival, start, node-failed+kill, restart, finish, summary *)
  check_int "entry count" 8 (Recorder.length recorder);
  (match Recorder.entries recorder with
  | [ Recorder.Run_meta m; Recorder.Job_arrived a; Recorder.Job_started s1; Recorder.Job_killed k;
      Recorder.Node_failed nf; Recorder.Job_started s2; Recorder.Job_finished f;
      Recorder.Run_summary summary ] ->
      check_int "meta job count" 1 m.jobs;
      check_bool "meta has no parent" true (m.parent = None);
      check_int "arrival job id" 7 a.job;
      check_int "arrival size" 128 a.size;
      check_int "job id" 7 s1.job;
      check_bool "first start not restart" false s1.restart;
      check_float "kill time" 40. k.time;
      check_int "killing node" 3 k.node;
      Alcotest.(check (option int)) "victim" (Some 7) nf.victim;
      check_bool "second start is restart" true s2.restart;
      check_float "finish" 140. f.time;
      check_int "summary completions" 1 summary.report.completed_jobs
  | entries ->
      Alcotest.failf "unexpected trace: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" Recorder.pp_entry) entries)))

let test_recorder_repair_entries () =
  (* repair at t=6, before the simulation drains at t=15 *)
  let log = mk_log [ mk_job ~id:0 ~arrival:10. ~size:1 ~run_time:5. ] in
  let recorder = Recorder.create () in
  let config = { Config.default with repair_time = 5. } in
  let _ =
    Engine.run ~recorder ~config ~policy:Bgl_sched.Placement.first_fit ~log
      ~failures:(mk_failures [ (1., 99) ]) ()
  in
  let entries = Recorder.entries recorder in
  check_bool "node failure recorded (idle)" true
    (List.exists (function Recorder.Node_failed { victim = None; node = 99; _ } -> true | _ -> false) entries);
  check_bool "repair recorded" true
    (List.exists (function Recorder.Node_repaired { node = 99; _ } -> true | _ -> false) entries)

let test_recorder_streaming_retains_nothing () =
  (* A streaming recorder retains no entries, and says so: replay
     consumers check [is_buffered] instead of reading an empty run. *)
  let null = Bgl_obs.Sink.null () in
  let recorder = Recorder.create ~sink:null () in
  let log = mk_log [ mk_job ~id:0 ~arrival:0. ~size:1 ~run_time:5. ] in
  let _ = Engine.run ~recorder ~policy:Bgl_sched.Placement.first_fit ~log ~failures:no_failures () in
  check_bool "not buffered" false (Recorder.is_buffered recorder);
  check_bool "entries empty" true (Recorder.entries recorder = []);
  check_bool "length still counts" true (Recorder.length recorder > 0)

let test_recorder_migration_entry () =
  let dims = Dims.make 4 1 1 in
  let config = { Config.default with dims; wrap = false; backfill = false; migration = true } in
  let log =
    mk_log
      [
        mk_job ~id:0 ~arrival:0. ~size:1 ~run_time:1000.;
        mk_job ~id:1 ~arrival:0. ~size:1 ~run_time:10.;
        mk_job ~id:2 ~arrival:0. ~size:1 ~run_time:1000.;
        mk_job ~id:3 ~arrival:20. ~size:2 ~run_time:10.;
      ]
  in
  let recorder = Recorder.create () in
  let _ = Engine.run ~recorder ~config ~policy:Bgl_sched.Placement.first_fit ~log ~failures:no_failures () in
  check_bool "migration recorded" true
    (List.exists
       (function Recorder.Job_migrated _ -> true | _ -> false)
       (Recorder.entries recorder))

(* ------------------------------------------------------------------ *)
(* Whole-simulation properties *)

let random_scenario_gen =
  QCheck.Gen.(
    map3
      (fun n_jobs n_failures seed -> (n_jobs, n_failures, seed))
      (int_range 1 60) (int_range 0 30) small_int)

let arb_scenario =
  QCheck.make
    ~print:(fun (j, f, s) -> Printf.sprintf "jobs=%d failures=%d seed=%d" j f s)
    random_scenario_gen

let build_scenario (n_jobs, n_failures, seed) =
  let rng = Bgl_stats.Rng.create ~seed in
  let jobs =
    List.init n_jobs (fun id ->
        mk_job ~id
          ~arrival:(Bgl_stats.Rng.float rng 5000.)
          ~size:(1 + Bgl_stats.Rng.int rng 128)
          ~run_time:(1. +. Bgl_stats.Rng.float rng 2000.))
  in
  let failures =
    mk_failures
      (List.init n_failures (fun _ ->
           (Bgl_stats.Rng.float rng 20000., Bgl_stats.Rng.int rng 128)))
  in
  (mk_log jobs, failures)

let policies =
  [
    ("first-fit", fun _ -> Bgl_sched.Placement.first_fit);
    ("mfp", fun _ -> Bgl_sched.Placement.mfp);
    ( "balancing",
      fun failures ->
        Bgl_sched.Placement.balancing
          ~predictor:
            (Bgl_predict.Predictor.balancing ~confidence:0.5
               (Bgl_predict.Failure_index.of_log failures))
          () );
    ( "tie-breaking",
      fun failures ->
        Bgl_sched.Placement.tie_breaking
          ~predictor:
            (Bgl_predict.Predictor.tie_breaking ~accuracy:0.5 ~seed:1
               (Bgl_predict.Failure_index.of_log failures))
          () );
  ]

let prop_all_jobs_complete =
  QCheck.Test.make ~name:"every admitted job completes under every policy" ~count:40 arb_scenario
    (fun params ->
      let log, failures = build_scenario params in
      List.for_all
        (fun (_, mk_policy) ->
          let o = Engine.run ~policy:(mk_policy failures) ~log ~failures () in
          o.complete)
        policies)

let prop_capacity_identity =
  QCheck.Test.make ~name:"util + unused + lost = 1" ~count:40 arb_scenario (fun params ->
      let log, failures = build_scenario params in
      QCheck.assume (Bgl_trace.Job_log.length log > 0);
      let o = Engine.run ~policy:Bgl_sched.Placement.mfp ~log ~failures () in
      let r = o.report in
      r.makespan <= 0. || abs_float (r.util +. r.unused +. r.lost -. 1.) < 1e-6)

let prop_metric_sanity =
  QCheck.Test.make ~name:"waits/responses/slowdowns are sane" ~count:40 arb_scenario
    (fun params ->
      let log, failures = build_scenario params in
      let o = Engine.run ~policy:Bgl_sched.Placement.first_fit ~log ~failures () in
      Array.for_all
        (fun (j : Job.t) ->
          (not (Job.is_completed j))
          || Job.wait_time j >= 0.
             && Job.response_time j >= j.spec.run_time -. 1e-6
             && Job.bounded_slowdown j >= 1. -. 1e-9)
        o.jobs)

let prop_deterministic =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:15 arb_scenario (fun params ->
      let log, failures = build_scenario params in
      let run () =
        (Engine.run ~policy:Bgl_sched.Placement.mfp ~log ~failures ()).report
      in
      run () = run ())

let prop_migration_safe =
  (* Regression: migration commits must never double-book nodes (the
     Grid raises if they do), and every job still completes. *)
  QCheck.Test.make ~name:"migration never double-books and completes" ~count:25 arb_scenario
    (fun params ->
      let log, failures = build_scenario params in
      let config = { Config.default with migration = true; migration_overhead = 30. } in
      let o = Engine.run ~config ~policy:Bgl_sched.Placement.mfp ~log ~failures () in
      o.complete)

let prop_busy_covers_util =
  QCheck.Test.make ~name:"busy fraction >= useful utilization" ~count:40 arb_scenario
    (fun params ->
      let log, failures = build_scenario params in
      QCheck.assume (Bgl_trace.Job_log.length log > 0);
      let r = (Engine.run ~policy:Bgl_sched.Placement.first_fit ~log ~failures ()).report in
      (* Busy time includes destroyed work and the volume rounding, so
         it can only exceed the size-based useful utilization. *)
      r.makespan <= 0. || r.busy_fraction >= r.util -. 1e-6)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eq_heap_order;
      prop_all_jobs_complete;
      prop_capacity_identity;
      prop_metric_sanity;
      prop_deterministic;
      prop_migration_safe;
      prop_busy_covers_util;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_sim"
    [
      ( "event_queue",
        [
          tc "order" test_eq_order;
          tc "fifo ties" test_eq_fifo_on_ties;
          tc "pop_if_at" test_eq_pop_if_at;
          tc "nan rejected" test_eq_nan_rejected;
          tc "no space leak" test_eq_no_leak;
        ] );
      ( "checkpoint",
        [
          tc "counts" test_checkpoint_counts;
          tc "wall time" test_checkpoint_wall_time;
          tc "persisted" test_checkpoint_persisted;
          tc "interval_for" test_checkpoint_interval_for;
          tc "young interval" test_young_interval;
          tc "mtbf of failures" test_mtbf_of_failures;
          tc "validate" test_checkpoint_validate;
        ] );
      ( "lifecycle",
        [
          tc "transition matrix" test_transition_matrix;
          tc "transition targets" test_transition_targets;
        ] );
      ( "engine",
        [
          tc "single job" test_single_job;
          tc "sequential full-machine jobs" test_two_jobs_sequential_on_full_machine;
          tc "parallel jobs" test_parallel_jobs;
          tc "failure kills and restarts" test_failure_kills_and_restarts;
          tc "failure on free node" test_failure_on_free_node_harmless;
          tc "simultaneous burst" test_simultaneous_burst_kills_multiple_jobs;
          tc "repeated failures" test_repeated_failures_same_job;
          tc "repair time" test_repair_time_blocks_node;
          tc "zero repair" test_zero_repair_instant_reuse;
          tc "checkpoint resume" test_checkpointed_job_resumes;
          tc "checkpoint overhead" test_checkpoint_overhead_without_failures;
          tc "FCFS order" test_fcfs_order_without_backfill;
          tc "queue ties: arrival then id" test_queue_order_ties;
          tc "backfill fills hole" test_backfill_fills_hole;
          tc "backfill reservation" test_backfill_respects_reservation;
          tc "oversize dropped" test_oversize_jobs_dropped;
          tc "migration defragments" test_migration_defragments;
          tc "candidate cap" test_candidate_cap_still_schedules;
          tc "no wraparound" test_no_wrap_config;
          tc "backfill depth zero" test_backfill_depth_zero;
          tc "adaptive checkpoint prediction" test_adaptive_checkpoint_uses_prediction;
          tc "empty log" test_empty_log_runs;
        ] );
      ( "recorder",
        [
          tc "lifecycle entries" test_recorder_lifecycle;
          tc "repair entries" test_recorder_repair_entries;
          tc "migration entry" test_recorder_migration_entry;
          tc "streaming retains no entries" test_recorder_streaming_retains_nothing;
        ] );
      ("properties", props);
    ]
