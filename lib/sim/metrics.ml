type t = {
  nodes : int;
  slowdown_tau : float;
  mutable anchored : bool;
  mutable start_time : float;
  mutable last_time : float;
  mutable cur_free : int;
  mutable cur_demand : int;
  mutable busy_integral : float;  (* node-seconds occupied *)
  mutable unused_integral : float;  (* node-seconds free beyond demand *)
  mutable waits : float list;
  mutable responses : float list;
  mutable slowdowns : float list;
  mutable failures_injected : int;
  mutable job_kills : int;
  mutable lost_work : float;
  mutable migrations : int;
  mutable checkpoints : int;
}

let create ~nodes ~slowdown_tau =
  {
    nodes;
    slowdown_tau;
    anchored = false;
    start_time = 0.;
    last_time = 0.;
    cur_free = nodes;
    cur_demand = 0;
    busy_integral = 0.;
    unused_integral = 0.;
    waits = [];
    responses = [];
    slowdowns = [];
    failures_injected = 0;
    job_kills = 0;
    lost_work = 0.;
    migrations = 0;
    checkpoints = 0;
  }

let advance t ~now ~free ~queued_demand =
  if not t.anchored then begin
    (* The first advance anchors the span: the engine calls it on the
       first job arrival. Earlier calls only refresh the snapshot. *)
    t.anchored <- true;
    t.start_time <- now;
    t.last_time <- now
  end
  else begin
    let dt = now -. t.last_time in
    if dt > 0. then begin
      let busy = t.nodes - t.cur_free in
      t.busy_integral <- t.busy_integral +. (float_of_int busy *. dt);
      let surplus = max 0 (t.cur_free - t.cur_demand) in
      t.unused_integral <- t.unused_integral +. (float_of_int surplus *. dt);
      t.last_time <- now
    end
  end;
  t.cur_free <- free;
  t.cur_demand <- queued_demand

let record_completion t (job : Job.t) =
  t.waits <- Job.wait_time job :: t.waits;
  t.responses <- Job.response_time job :: t.responses;
  t.slowdowns <- Job.bounded_slowdown ~tau:t.slowdown_tau job :: t.slowdowns

let record_failure_event t = t.failures_injected <- t.failures_injected + 1

let record_job_kill t ~lost_node_seconds =
  t.job_kills <- t.job_kills + 1;
  t.lost_work <- t.lost_work +. lost_node_seconds

let record_migration t = t.migrations <- t.migrations + 1
let record_checkpoint t = t.checkpoints <- t.checkpoints + 1

type report = {
  total_jobs : int;
  completed_jobs : int;
  avg_wait : float;
  avg_response : float;
  avg_bounded_slowdown : float;
  median_bounded_slowdown : float;
  p90_bounded_slowdown : float;
  util : float;
  unused : float;
  lost : float;
  busy_fraction : float;
  makespan : float;
  failures_injected : int;
  job_kills : int;
  restarts : int;
  lost_work : float;
  migrations : int;
  checkpoints : int;
}

let report t ~jobs ~total_jobs =
  let makespan = t.last_time -. t.start_time in
  let capacity = makespan *. float_of_int t.nodes in
  let useful =
    List.fold_left
      (fun acc (j : Job.t) -> acc +. (float_of_int j.spec.size *. j.spec.run_time))
      0. jobs
  in
  let slow = Bgl_stats.Summary.of_list t.slowdowns in
  let util = if capacity > 0. then useful /. capacity else 0. in
  let unused = if capacity > 0. then t.unused_integral /. capacity else 0. in
  {
    total_jobs;
    completed_jobs = List.length jobs;
    avg_wait = Bgl_stats.Summary.mean t.waits;
    avg_response = Bgl_stats.Summary.mean t.responses;
    avg_bounded_slowdown = slow.mean;
    median_bounded_slowdown = slow.median;
    p90_bounded_slowdown = slow.p90;
    util;
    unused;
    lost = 1. -. util -. unused;
    busy_fraction = (if capacity > 0. then t.busy_integral /. capacity else 0.);
    makespan;
    failures_injected = t.failures_injected;
    job_kills = t.job_kills;
    restarts = List.fold_left (fun acc (j : Job.t) -> acc + j.restarts) 0 jobs;
    lost_work = t.lost_work;
    migrations = t.migrations;
    checkpoints = t.checkpoints;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>jobs: %d/%d completed, makespan %.0f s@,\
     wait %.1f s  response %.1f s  bounded slowdown avg %.2f (median %.2f, p90 %.2f)@,\
     capacity: util %.4f  unused %.4f  lost %.4f  (busy %.4f)@,\
     failures %d  kills %d  restarts %d  lost work %.3g node-s  migrations %d  checkpoints %d@]"
    r.completed_jobs r.total_jobs r.makespan r.avg_wait r.avg_response r.avg_bounded_slowdown
    r.median_bounded_slowdown r.p90_bounded_slowdown r.util r.unused r.lost r.busy_fraction
    r.failures_injected r.job_kills r.restarts r.lost_work r.migrations r.checkpoints

let report_to_registry reg r =
  let g name help v = Bgl_obs.Registry.set (Bgl_obs.Registry.gauge reg ~help name) v in
  let gi name help v = g name help (float_of_int v) in
  gi "bgl_report_jobs_total" "jobs submitted to the run" r.total_jobs;
  gi "bgl_report_jobs_completed" "jobs that ran to completion" r.completed_jobs;
  g "bgl_report_wait_seconds_avg" "mean job wait time" r.avg_wait;
  g "bgl_report_response_seconds_avg" "mean job response time" r.avg_response;
  g "bgl_report_bounded_slowdown_avg" "mean bounded slowdown" r.avg_bounded_slowdown;
  g "bgl_report_bounded_slowdown_median" "median bounded slowdown" r.median_bounded_slowdown;
  g "bgl_report_bounded_slowdown_p90" "90th percentile bounded slowdown" r.p90_bounded_slowdown;
  g "bgl_report_util" "omega_util: useful work / capacity" r.util;
  g "bgl_report_unused" "omega_unused: undemanded free capacity / capacity" r.unused;
  g "bgl_report_lost" "omega_lost: 1 - util - unused" r.lost;
  g "bgl_report_busy_fraction" "node-busy integral / capacity" r.busy_fraction;
  g "bgl_report_makespan_seconds" "simulation span T" r.makespan;
  gi "bgl_report_failures_injected" "failure events injected" r.failures_injected;
  gi "bgl_report_job_kills" "jobs killed by failures" r.job_kills;
  gi "bgl_report_restarts" "job restarts" r.restarts;
  g "bgl_report_lost_work_node_seconds" "node-seconds destroyed by kills" r.lost_work;
  gi "bgl_report_migrations" "jobs migrated" r.migrations;
  gi "bgl_report_checkpoints" "checkpoints taken" r.checkpoints

let report_to_csv_header =
  "total_jobs,completed_jobs,avg_wait,avg_response,avg_bounded_slowdown,median_bounded_slowdown,p90_bounded_slowdown,util,unused,lost,busy_fraction,makespan,failures_injected,job_kills,restarts,lost_work,migrations,checkpoints"

let report_to_csv_row r =
  Printf.sprintf "%d,%d,%.3f,%.3f,%.4f,%.4f,%.4f,%.5f,%.5f,%.5f,%.5f,%.1f,%d,%d,%d,%.1f,%d,%d"
    r.total_jobs r.completed_jobs r.avg_wait r.avg_response r.avg_bounded_slowdown
    r.median_bounded_slowdown r.p90_bounded_slowdown r.util r.unused r.lost r.busy_fraction
    r.makespan r.failures_injected r.job_kills r.restarts r.lost_work r.migrations r.checkpoints

(* ------------------------------------------------------------------ *)
(* JSON round-trip for the sweep journal. Floats go out with 17
   significant digits (enough to reconstruct any float64 exactly), so
   a journaled report replays bit-identically on resume. *)

let report_to_json r =
  let f v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let i = Bgl_obs.Jsonl.int in
  Bgl_obs.Jsonl.obj
    [
      ("total_jobs", i r.total_jobs);
      ("completed_jobs", i r.completed_jobs);
      ("avg_wait", f r.avg_wait);
      ("avg_response", f r.avg_response);
      ("avg_bounded_slowdown", f r.avg_bounded_slowdown);
      ("median_bounded_slowdown", f r.median_bounded_slowdown);
      ("p90_bounded_slowdown", f r.p90_bounded_slowdown);
      ("util", f r.util);
      ("unused", f r.unused);
      ("lost", f r.lost);
      ("busy_fraction", f r.busy_fraction);
      ("makespan", f r.makespan);
      ("failures_injected", i r.failures_injected);
      ("job_kills", i r.job_kills);
      ("restarts", i r.restarts);
      ("lost_work", f r.lost_work);
      ("migrations", i r.migrations);
      ("checkpoints", i r.checkpoints);
    ]

let report_of_json v =
  let ( let* ) = Result.bind in
  let f name =
    match Bgl_obs.Jsonl.member name v with
    | Some (Bgl_obs.Jsonl.Number x) -> Ok x
    | Some Bgl_obs.Jsonl.Null -> Ok Float.nan
    | Some _ -> Error (Printf.sprintf "report member %s is not a number" name)
    | None -> Error (Printf.sprintf "report member %s missing" name)
  in
  let i name =
    match Bgl_obs.Jsonl.member name v with
    | Some x ->
        Option.to_result
          ~none:(Printf.sprintf "report member %s is not an integer" name)
          (Bgl_obs.Jsonl.to_int x)
    | None -> Error (Printf.sprintf "report member %s missing" name)
  in
  let* total_jobs = i "total_jobs" in
  let* completed_jobs = i "completed_jobs" in
  let* avg_wait = f "avg_wait" in
  let* avg_response = f "avg_response" in
  let* avg_bounded_slowdown = f "avg_bounded_slowdown" in
  let* median_bounded_slowdown = f "median_bounded_slowdown" in
  let* p90_bounded_slowdown = f "p90_bounded_slowdown" in
  let* util = f "util" in
  let* unused = f "unused" in
  let* lost = f "lost" in
  let* busy_fraction = f "busy_fraction" in
  let* makespan = f "makespan" in
  let* failures_injected = i "failures_injected" in
  let* job_kills = i "job_kills" in
  let* restarts = i "restarts" in
  let* lost_work = f "lost_work" in
  let* migrations = i "migrations" in
  let* checkpoints = i "checkpoints" in
  Ok
    {
      total_jobs;
      completed_jobs;
      avg_wait;
      avg_response;
      avg_bounded_slowdown;
      median_bounded_slowdown;
      p90_bounded_slowdown;
      util;
      unused;
      lost;
      busy_fraction;
      makespan;
      failures_injected;
      job_kills;
      restarts;
      lost_work;
      migrations;
      checkpoints;
    }
