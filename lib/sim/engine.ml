open Bgl_torus

type event =
  | Arrival of int  (* job index *)
  | Finish of int * int  (* job index, generation *)
  | Failure of int  (* node *)
  | Repair of int  (* node *)

type outcome = {
  name : string;
  report : Metrics.report;
  jobs : Job.t array;
  dropped_jobs : int;
  complete : bool;
}

(* Live instruments resolved once per run against the process-wide
   registry (Bgl_obs.Runtime). With the default noop registry every
   cell below is inert and the increments cost one branch. *)
type obs = {
  active : bool;  (* false iff the registry is noop: guards arguments
                     that would cost something to compute (lengths) *)
  ev_arrival : Bgl_obs.Registry.counter;
  ev_finish : Bgl_obs.Registry.counter;
  ev_failure : Bgl_obs.Registry.counter;
  ev_repair : Bgl_obs.Registry.counter;
  jobs_started : Bgl_obs.Registry.counter;
  jobs_finished : Bgl_obs.Registry.counter;
  jobs_killed : Bgl_obs.Registry.counter;
  jobs_migrated : Bgl_obs.Registry.counter;
  g_free_nodes : Bgl_obs.Registry.gauge;
  g_queue_depth : Bgl_obs.Registry.gauge;
  g_sim_time : Bgl_obs.Registry.gauge;
  h_wait : Bgl_obs.Registry.histogram;
  h_candidates : Bgl_obs.Registry.histogram;
}

let make_obs () =
  let open Bgl_obs.Registry in
  let reg = Bgl_obs.Runtime.registry () in
  let ev kind = counter reg ~help:"simulation events handled, by kind"
      (Printf.sprintf "bgl_sim_events_total{kind=%S}" kind)
  in
  {
    active = not (is_noop reg);
    ev_arrival = ev "arrival";
    ev_finish = ev "finish";
    ev_failure = ev "failure";
    ev_repair = ev "repair";
    jobs_started = counter reg ~help:"job (re)starts" "bgl_sim_job_starts_total";
    jobs_finished = counter reg ~help:"job completions" "bgl_sim_job_finishes_total";
    jobs_killed = counter reg ~help:"jobs killed by node failures" "bgl_sim_job_kills_total";
    jobs_migrated = counter reg ~help:"job migrations" "bgl_sim_job_migrations_total";
    g_free_nodes = gauge reg ~help:"free nodes after the last event" "bgl_sim_free_nodes";
    g_queue_depth = gauge reg ~help:"jobs waiting in the queue" "bgl_sim_queue_depth";
    g_sim_time = gauge reg ~help:"simulated clock (seconds)" "bgl_sim_time_seconds";
    h_wait = histogram reg ~help:"per-job wait time (sim seconds)" "bgl_sim_job_wait_seconds";
    h_candidates =
      histogram reg ~help:"free-partition candidates per placement attempt"
        ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]
        "bgl_sim_placement_candidates";
  }

(* The wait queue is a set ordered by (arrival, id) — the FCFS order the
   old sorted-list queue maintained — with the job index carried along.
   Insert and remove are O(log Q) where the list walked O(Q) per
   operation (O(Q²) across a bursty arrival batch); iteration order is
   identical, so scheduling behaviour is byte-for-byte unchanged.
   (arrival, id) is already unique per job; the index is payload, not a
   tiebreak. *)
module Jobq = Set.Make (struct
  type t = float * int * int  (* arrival, id, job index *)

  let compare = Stdlib.compare
end)

(* Jobs currently holding partitions. The old [int list] paid O(n) for
   the removal on every completion and kill; this set removes in
   O(log n). Ordered by {e descending} start sequence so iteration
   reproduces the old list's LIFO order exactly: the stable sorts in
   [compute_reservation] and [try_migrate] tie-break on iteration
   order, and the fig-3 golden traces pin it byte for byte. *)
module Runset = Set.Make (struct
  type t = int * int  (* start sequence, job index *)

  let compare (sa, ia) (sb, ib) =
    match Int.compare sb sa with 0 -> Int.compare ib ia | c -> c
end)

type state = {
  cfg : Config.t;
  policy : Policy.t;
  recorder : Recorder.t option;
  trace : Recorder.t option;
      (* streaming JSONL recorder wired from Bgl_obs.Runtime.trace_writer;
         independent of the caller's recorder *)
  obs : obs;
  heartbeat : Bgl_obs.Heartbeat.t option;
  predictor : Bgl_predict.Predictor.t;
  grid : Grid.t;
  jobs : Job.t array;
  events : event Event_queue.t;
  metrics : Metrics.t;
  mutable queue : Jobq.t;  (* FCFS by (arrival, id); holds job indices *)
  mutable queue_len : int;
  mutable queued_demand : int;  (* sum of requested sizes over the queue *)
  mutable running : Runset.t;
  start_seq : int array;  (* per job index: sequence of its current run *)
  mutable next_seq : int;
  mutable arrivals_pending : int;
  mutable now : float;
  cache : Bgl_partition.Finder.Cache.t;
      (* finder cache over [grid]: incrementally maintained summed-area
         table plus fingerprint-keyed memo of finder results. Every
         occupancy mutation below is paired with a [note_box]/[note_node]
         so table updates stay incremental; a missed note only costs a
         full rebuild (the cache self-heals via the grid version). *)
}

(* Running job indices, most recently started first — the old list's
   iteration order ([Runset]'s comparator inverts the sequence). *)
let running_lifo st = List.map snd (Runset.elements st.running)

let running_add st idx =
  st.start_seq.(idx) <- st.next_seq;
  st.next_seq <- st.next_seq + 1;
  st.running <- Runset.add (st.start_seq.(idx), idx) st.running

let running_remove st idx = st.running <- Runset.remove (st.start_seq.(idx), idx) st.running

let record st entry =
  (match st.recorder with Some r -> Recorder.record r entry | None -> ());
  match st.trace with Some r -> Recorder.record r entry | None -> ()

(* ------------------------------------------------------------------ *)
(* Queue management *)

let queue_key st idx =
  let j = st.jobs.(idx).spec in
  (j.Bgl_trace.Job_log.arrival, j.id, idx)

let queue_insert st idx =
  st.queue <- Jobq.add (queue_key st idx) st.queue;
  st.queue_len <- st.queue_len + 1;
  st.queued_demand <- st.queued_demand + st.jobs.(idx).spec.size

let queue_remove st idx =
  st.queue <- Jobq.remove (queue_key st idx) st.queue;
  st.queue_len <- st.queue_len - 1;
  st.queued_demand <- st.queued_demand - st.jobs.(idx).spec.size

(* ------------------------------------------------------------------ *)
(* Placement *)

(* One capped query: [Cache.select] answers with the deterministic even
   subsample (the historical [cap_candidates ∘ find] semantics, proven
   equivalent by the qcheck layer and the differential oracle) without
   materialising the full candidate list — the term that used to be
   super-linear in machine size. The uncapped path keeps the full
   enumeration. *)
let find_candidates st volume =
  if Grid.free_count st.grid < volume then []
  else
    match st.cfg.Config.candidate_cap with
    | None -> Bgl_partition.Finder.Cache.find st.cache ~volume
    | Some cap -> Bgl_partition.Finder.Cache.select st.cache ~volume ~cap

let checkpoint_interval st (job : Job.t) box =
  match st.cfg.checkpoint with
  | None -> None
  | Some spec ->
      let risky =
        match spec with
        | Checkpoint.Periodic _ -> false
        | Checkpoint.Adaptive _ ->
            Bgl_predict.Predictor.partition_will_fail st.predictor
              ~nodes:(Box.indices (Grid.dims st.grid) box)
              ~now:st.now ~horizon:job.spec.estimate
      in
      Some (Checkpoint.interval_for spec ~risky)

let start_job st idx box =
  let job = st.jobs.(idx) in
  let interval = checkpoint_interval st job box in
  let wall =
    match interval with
    | None -> job.remaining
    | Some iv ->
        Checkpoint.wall_time ~interval:iv
          ~overhead:(Checkpoint.overhead (Option.get st.cfg.checkpoint))
          ~work:job.remaining
  in
  Grid.occupy st.grid box ~owner:idx;
  Bgl_partition.Finder.Cache.note_box st.cache box;
  if job.first_start = None then job.first_start <- Some st.now;
  Job.transition job
    (Job.Start
       {
         box;
         started = st.now;
         finish_time = st.now +. wall;
         generation = job.generation;
         work_at_start = job.remaining;
         interval;
       });
  running_add st idx;
  record st
    (Recorder.Job_started { job = job.spec.id; time = st.now; box; restart = job.restarts > 0 });
  Bgl_obs.Registry.inc st.obs.jobs_started;
  Event_queue.push st.events ~time:(st.now +. wall) (Finish (idx, job.generation))

let try_place st (job : Job.t) =
  let candidates = find_candidates st job.volume in
  if st.obs.active then
    Bgl_obs.Registry.observe st.obs.h_candidates (float_of_int (List.length candidates));
  match candidates with
  | [] -> None
  | candidates ->
      let ctx = Policy.make_ctx ~cache:st.cache ~now:st.now st.grid in
      st.policy.choose ctx ~job:job.spec ~volume:job.volume ~candidates

(* ------------------------------------------------------------------ *)
(* EASY backfilling with a spatial reservation *)

let estimated_run_end st idx =
  let job = st.jobs.(idx) in
  match Job.current_run job with
  | None -> st.now
  | Some r -> r.started +. Float.max job.spec.estimate (st.now -. r.started)

(* Earliest time the head job could start if running jobs end at their
   estimates, and a partition it could then take. *)
let compute_reservation st (head : Job.t) =
  let ghost = Grid.copy st.grid in
  (* The ghost gets its own finder cache so the summed-area table is
     built once and then patched incrementally as runs are released,
     instead of rebuilt per feasibility probe. *)
  let gcache = Bgl_partition.Finder.Cache.create ghost in
  let feasible () =
    Grid.free_count ghost >= head.volume
    && Bgl_partition.Finder.Cache.exists_free gcache ~volume:head.volume
  in
  let by_end =
    List.sort
      (fun a b -> compare (estimated_run_end st a) (estimated_run_end st b))
      (running_lifo st)
  in
  let rec release shadow = function
    | [] -> (shadow, None)
    | idx :: rest -> (
        let job = st.jobs.(idx) in
        (match Job.current_run job with
        | Some r ->
            Grid.vacate ghost r.box ~owner:idx;
            Bgl_partition.Finder.Cache.note_box gcache r.box
        | None -> ());
        let shadow = estimated_run_end st idx in
        if feasible () then
          (* Only the sorted head is needed: rank 0 of the counted walk
             is the head of the materialised list. *)
          match Bgl_partition.Finder.Cache.select gcache ~volume:head.volume ~cap:1 with
          | box :: _ -> (shadow, Some box)
          | [] -> (shadow, None) (* unreachable: feasible () just held *)
        else release shadow rest)
  in
  if feasible () then (st.now, None) (* should have been placed directly *)
  else release st.now by_end

let backfill_pass st head_idx =
  let head = st.jobs.(head_idx) in
  let shadow, reserved = compute_reservation st head in
  let dims = Grid.dims st.grid in
  let depth = st.cfg.backfill_depth in
  (* Snapshot of the queue behind the head, in FCFS order. The set is
     immutable, so starting a backfilled job (which removes it from
     [st.queue]) cannot disturb the ongoing scan. *)
  let rest = Jobq.remove (queue_key st head_idx) st.queue in
  let rec scan count seq =
    if count >= depth then ()
    else
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons ((_, _, idx), later) ->
          let job = st.jobs.(idx) in
          let candidates = find_candidates st job.volume in
          let allowed =
            if candidates = [] then []
            else if st.now +. job.spec.estimate <= shadow then candidates
            else
              match reserved with
              | None -> candidates
              | Some res -> List.filter (fun b -> not (Box.overlap dims b res)) candidates
          in
          (if allowed <> [] then
             let ctx = Policy.make_ctx ~cache:st.cache ~now:st.now st.grid in
             match st.policy.choose ctx ~job:job.spec ~volume:job.volume ~candidates:allowed with
             | Some box ->
                 queue_remove st idx;
                 start_job st idx box
             | None -> ());
          scan (count + 1) later
  in
  scan 0 (Jobq.to_seq rest)

(* ------------------------------------------------------------------ *)
(* Migration: re-pack running jobs (largest first) to defragment *)

let try_migrate st (head : Job.t) =
  if Grid.free_count st.grid < head.volume then false
  else begin
    let dims = Grid.dims st.grid in
    let ghost = Grid.create ~wrap:(Grid.wrap st.grid) dims in
    (* Keep downed nodes down in the ghost. *)
    Grid.iter_owned st.grid (fun node owner ->
        if owner = Grid.down_owner then Grid.occupy_node ghost node ~owner:Grid.down_owner);
    (* Repacking queries the ghost once per running job as it fills up:
       a local cache keeps those incremental. *)
    let gcache = Bgl_partition.Finder.Cache.create ghost in
    let order =
      List.sort
        (fun a b -> Int.compare st.jobs.(b).volume st.jobs.(a).volume)
        (running_lifo st)
    in
    let placements =
      List.fold_left
        (fun acc idx ->
          match acc with
          | None -> None
          | Some placed -> (
              let job = st.jobs.(idx) in
              match Bgl_partition.Finder.Cache.select gcache ~volume:job.volume ~cap:1 with
              | [] -> None
              | box :: _ ->
                  Grid.occupy ghost box ~owner:idx;
                  Bgl_partition.Finder.Cache.note_box gcache box;
                  Some ((idx, box) :: placed)))
        (Some []) order
    in
    match placements with
    | None -> false
    | Some placed ->
        if not (Bgl_partition.Finder.Cache.exists_free gcache ~volume:head.volume) then false
        else begin
          (* Commit in two phases: a job's new box may overlap another
             job's old box, so every moved job vacates before any
             occupies. *)
          let moves =
            List.filter_map
              (fun (idx, new_box) ->
                match Job.current_run st.jobs.(idx) with
                | Some r when not (Box.equal r.box new_box) -> Some (idx, r, new_box)
                | Some _ | None -> None)
              placed
          in
          List.iter
            (fun (idx, (r : Job.run), _) ->
              Grid.vacate st.grid r.box ~owner:idx;
              Bgl_partition.Finder.Cache.note_box st.cache r.box)
            moves;
          List.iter
            (fun (idx, (r : Job.run), new_box) ->
              let job = st.jobs.(idx) in
              Grid.occupy st.grid new_box ~owner:idx;
              Bgl_partition.Finder.Cache.note_box st.cache new_box;
              record st
                (Recorder.Job_migrated
                   { job = job.spec.id; time = st.now; from_box = r.box; to_box = new_box });
              job.generation <- job.generation + 1;
              let finish_time = r.finish_time +. st.cfg.migration_overhead in
              Job.transition job
                (Job.Migrate { r with box = new_box; finish_time; generation = job.generation });
              Event_queue.push st.events ~time:finish_time (Finish (idx, job.generation));
              Bgl_obs.Registry.inc st.obs.jobs_migrated;
              Metrics.record_migration st.metrics)
            moves;
          true
        end
  end

(* ------------------------------------------------------------------ *)
(* The scheduling pass: place the head while possible, then backfill *)

let schedule_pass st =
  let rec go migration_tried =
    match Jobq.min_elt_opt st.queue with
    | None -> ()
    | Some (_, _, head_idx) -> (
        let head = st.jobs.(head_idx) in
        match try_place st head with
        | Some box ->
            queue_remove st head_idx;
            start_job st head_idx box;
            go migration_tried
        | None ->
            if st.cfg.migration && (not migration_tried) && try_migrate st head then go true
            else if st.cfg.backfill then backfill_pass st head_idx)
  in
  go false

(* ------------------------------------------------------------------ *)
(* Event handling *)

let complete_run st idx =
  let job = st.jobs.(idx) in
  match Job.current_run job with
  | None -> ()
  | Some r ->
      Grid.vacate st.grid r.box ~owner:idx;
      Bgl_partition.Finder.Cache.note_box st.cache r.box;
      running_remove st idx;
      (match r.interval with
      | None -> ()
      | Some iv ->
          let n = Checkpoint.checkpoints_for_work ~interval:iv ~work:r.work_at_start in
          job.checkpoints_taken <- job.checkpoints_taken + n;
          for _ = 1 to n do
            Metrics.record_checkpoint st.metrics
          done);
      job.remaining <- 0.;
      Job.transition job Job.Complete;
      job.completion <- Some st.now;
      record st (Recorder.Job_finished { job = job.spec.id; time = st.now });
      Bgl_obs.Registry.inc st.obs.jobs_finished;
      if st.obs.active then Bgl_obs.Registry.observe st.obs.h_wait (Job.wait_time job);
      Metrics.record_completion st.metrics job

let kill_job st idx ~node =
  let job = st.jobs.(idx) in
  match Job.current_run job with
  | None -> ()
  | Some r ->
      let elapsed = st.now -. r.started in
      (* One credit calculation feeds both the persisted-work figure
         and the checkpoint count, so they cannot drift apart. *)
      let credits, persisted =
        match (r.interval, st.cfg.checkpoint) with
        | Some iv, Some spec ->
            let k =
              Checkpoint.checkpoints_completed ~interval:iv ~overhead:(Checkpoint.overhead spec)
                ~work:r.work_at_start ~elapsed
            in
            (k, float_of_int k *. iv)
        | None, _ | _, None -> (0, 0.)
      in
      if credits > 0 then begin
        job.checkpoints_taken <- job.checkpoints_taken + credits;
        for _ = 1 to credits do
          Metrics.record_checkpoint st.metrics
        done
      end;
      Grid.vacate st.grid r.box ~owner:idx;
      Bgl_partition.Finder.Cache.note_box st.cache r.box;
      running_remove st idx;
      let lost = float_of_int job.volume *. (elapsed -. persisted) in
      job.lost_node_seconds <- job.lost_node_seconds +. lost;
      record st
        (Recorder.Job_killed { job = job.spec.id; time = st.now; node; lost_node_seconds = lost });
      Bgl_obs.Registry.inc st.obs.jobs_killed;
      Metrics.record_job_kill st.metrics ~lost_node_seconds:lost;
      job.remaining <- r.work_at_start -. persisted;
      job.generation <- job.generation + 1;
      job.restarts <- job.restarts + 1;
      Job.transition job Job.Kill;
      queue_insert st idx

let handle st = function
  | Arrival idx ->
      Bgl_obs.Registry.inc st.obs.ev_arrival;
      st.arrivals_pending <- st.arrivals_pending - 1;
      let spec = st.jobs.(idx).spec in
      record st
        (Recorder.Job_arrived
           { job = spec.id; time = st.now; size = spec.size; run_time = spec.run_time });
      queue_insert st idx
  | Finish (idx, gen) -> (
      Bgl_obs.Registry.inc st.obs.ev_finish;
      let job = st.jobs.(idx) in
      match Job.current_run job with
      | Some r when r.generation = gen -> complete_run st idx
      | Some _ | None -> () (* stale event from a killed or migrated run *))
  | Failure node -> (
      Bgl_obs.Registry.inc st.obs.ev_failure;
      Metrics.record_failure_event st.metrics;
      let victim =
        match Grid.owner st.grid node with
        | Some owner when owner >= 0 ->
            let victim_id = st.jobs.(owner).spec.id in
            kill_job st owner ~node;
            Some victim_id
        | Some _ | None -> None
      in
      record st (Recorder.Node_failed { time = st.now; node; victim });
      (* Downtime extension: hold the node out of service. *)
      if st.cfg.repair_time > 0. then
        match Grid.owner st.grid node with
        | None ->
            Grid.occupy_node st.grid node ~owner:Grid.down_owner;
            Bgl_partition.Finder.Cache.note_node st.cache node;
            Event_queue.push st.events ~time:(st.now +. st.cfg.repair_time) (Repair node)
        | Some _ -> () (* already down: burst double-hit *))
  | Repair node -> (
      Bgl_obs.Registry.inc st.obs.ev_repair;
      match Grid.owner st.grid node with
      | Some owner when owner = Grid.down_owner ->
          Grid.vacate_node st.grid node ~owner;
          Bgl_partition.Finder.Cache.note_node st.cache node;
          record st (Recorder.Node_repaired { time = st.now; node })
      | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* Driver *)

let run ?(config = Config.default) ?(predictor = Bgl_predict.Predictor.null) ?recorder ?budget
    ?run_id ?seed ~(policy : Policy.t) ~(log : Bgl_trace.Job_log.t)
    ~(failures : Bgl_trace.Failure_log.t) () =
  Bgl_resilience.Budget.with_budget budget @@ fun () ->
  Config.validate config;
  (match Bgl_trace.Failure_log.validate_nodes failures ~volume:(Dims.volume config.dims) with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let dropped = ref 0 in
  let jobs =
    Array.to_list log.jobs
    |> List.filter_map (fun (spec : Bgl_trace.Job_log.job) ->
           match Bgl_partition.Shapes.round_up_volume config.dims spec.size with
           | Some volume -> Some (Job.create spec ~volume)
           | None ->
               if config.drop_oversize then begin
                 incr dropped;
                 None
               end
               else
                 invalid_arg
                   (Printf.sprintf "Engine.run: job %d (%d nodes) exceeds the torus" spec.id
                      spec.size))
    |> Array.of_list
  in
  (* Every streamed trace line is tagged with this id, so concurrent
     runs multiplexed into one writer (a parallel sweep) demux cleanly
     line by line. *)
  let rid =
    match run_id with
    | Some id -> id
    | None ->
        Digest.to_hex
          (Digest.string
             (Printf.sprintf "%s|%s|%s|%d" log.name failures.name policy.name (Array.length jobs)))
  in
  let trace =
    Option.map
      (fun w ->
        Recorder.create
          ~sink:(Bgl_obs.Sink.jsonl_writer ~to_json:(Recorder.entry_to_json ~run:rid) w) ())
      (Bgl_obs.Runtime.trace_writer ())
  in
  let grid = Grid.create ~wrap:config.wrap config.dims in
  let st =
    {
      cfg = config;
      policy;
      recorder;
      trace;
      obs = make_obs ();
      heartbeat = Bgl_obs.Runtime.heartbeat ();
      predictor;
      grid;
      jobs;
      events = Event_queue.create ();
      metrics = Metrics.create ~nodes:(Dims.volume config.dims) ~slowdown_tau:config.slowdown_tau;
      queue = Jobq.empty;
      queue_len = 0;
      queued_demand = 0;
      running = Runset.empty;
      start_seq = Array.make (Array.length jobs) 0;
      next_seq = 0;
      arrivals_pending = Array.length jobs;
      now = 0.;
      cache = Bgl_partition.Finder.Cache.create grid;
    }
  in
  (* Frame the run: a run_meta header carrying everything the auditor
     needs (torus, policy, provenance), a run_summary trailer with the
     engine's own totals for it to cross-check. *)
  record st
    (Recorder.Run_meta
       {
         time = st.now;
         schema = Recorder.schema_version;
         log = log.name;
         failures = failures.name;
         policy = policy.name;
         dims = config.dims;
         wrap = config.wrap;
         jobs = Array.length jobs;
         seed;
         parent = Bgl_obs.Runtime.trace_parent ();
         repair_time = config.repair_time;
         checkpointed = Option.is_some config.checkpoint;
       });
  Array.iteri (fun idx (j : Job.t) -> Event_queue.push st.events ~time:j.spec.arrival (Arrival idx)) jobs;
  Array.iter
    (fun (e : Bgl_trace.Failure_log.event) -> Event_queue.push st.events ~time:e.time (Failure e.node))
    failures.events;
  let first_arrival = if Array.length jobs = 0 then 0. else jobs.(0).spec.arrival in
  let rec loop () =
    if st.arrivals_pending = 0 && Jobq.is_empty st.queue && Runset.is_empty st.running then ()
    else
      match Event_queue.pop st.events with
      | None -> () (* unschedulable leftovers; reported as incomplete *)
      | Some (time, ev) ->
          Bgl_resilience.Budget.check ~site:"engine.event";
          st.now <- time;
          handle st ev;
          (* Drain the batch of simultaneous events (failure bursts)
             before scheduling once. *)
          let rec drain () =
            match Event_queue.pop_if_at st.events ~time with
            | Some ev ->
                handle st ev;
                drain ()
            | None -> ()
          in
          drain ();
          (if Bgl_obs.Span.enabled () then
             Bgl_obs.Span.time ~name:"engine.schedule_pass" (fun () -> schedule_pass st)
           else schedule_pass st);
          if time >= first_arrival then
            Metrics.advance st.metrics ~now:time ~free:(Grid.free_count st.grid)
              ~queued_demand:st.queued_demand;
          if st.obs.active then begin
            Bgl_obs.Registry.set st.obs.g_sim_time st.now;
            Bgl_obs.Registry.set st.obs.g_free_nodes (float_of_int (Grid.free_count st.grid));
            Bgl_obs.Registry.set st.obs.g_queue_depth (float_of_int st.queue_len)
          end;
          (match st.heartbeat with
          | None -> ()
          | Some hb ->
              Bgl_obs.Heartbeat.tick hb (fun () ->
                  {
                    Bgl_obs.Heartbeat.sim_time = st.now;
                    queue_depth = st.queue_len;
                    running = Runset.cardinal st.running;
                    free_nodes = Grid.free_count st.grid;
                  }));
          loop ()
  in
  loop ();
  let completed = Array.to_list jobs |> List.filter Job.is_completed in
  let report = Metrics.report st.metrics ~jobs:completed ~total_jobs:(Array.length jobs) in
  record st (Recorder.Run_summary { time = st.now; report });
  Option.iter Recorder.flush trace;
  {
    name = Printf.sprintf "%s vs %s under %s" log.name failures.name policy.name;
    report;
    jobs;
    dropped_jobs = !dropped;
    complete = List.length completed = Array.length jobs;
  }
