open Bgl_torus
module Recorder = Bgl_sim.Recorder

(* Relative float tolerance for cross-checking recomputed metrics
   against the engine's totals. The engine integrates piecewise in
   event order and the auditor regroups the same intervals (stale
   finish events split the engine's batches invisibly), so the sums
   differ in rounding only — parts in 1e-15, nowhere near 1e-6. *)
let tol = 1e-6

(* The trace serializes floats at 12 significant digits, so every
   timestamp read back carries a relative quantization error up to
   ~5e-13. Checks that *subtract* nearby timestamps (tenancies, waits)
   lose that cancellation and need an absolute slack proportional to
   the timestamp magnitude, not the difference. *)
let time_quantum = 1e-11

let close_enough ?(slack = 0.) a b =
  Float.abs (a -. b) <= slack +. (tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)))

(* ------------------------------------------------------------------ *)
(* Per-job lifecycle state, reconstructed from the trace alone. *)

type jstate = Queued | Running of { box : Box.t; started : float } | Done

type jinfo = {
  arrival : float;
  size : int;
  work : float;
  mutable state : jstate;
  mutable first_start : float option;
  mutable kills : int;
}

let free_owner = min_int
let down_owner = min_int + 1

let box_valid dims ~wrap (b : Box.t) =
  b.shape.sx > 0 && b.shape.sy > 0 && b.shape.sz > 0
  && Coord.in_bounds dims b.base && Shape.fits dims b.shape
  && (wrap
     || b.base.x + b.shape.sx <= dims.nx
        && b.base.y + b.shape.sy <= dims.ny
        && b.base.z + b.shape.sz <= dims.nz)
  && Box.equal (Box.canonical dims ~wrap b) b

(* ------------------------------------------------------------------ *)

let section (s : Trace.section) =
  let findings = ref [] in
  let viol rule (it : Trace.item) msg =
    findings :=
      Finding.make rule ~file:it.file ~line:it.lineno ~end_col:it.len ?run:s.run msg :: !findings
  in
  let viol_meta rule msg =
    findings := Finding.make rule ~file:s.meta_file ~line:s.meta_line ?run:s.run msg :: !findings
  in
  let viol_last rule msg =
    findings := Finding.make rule ~file:s.last_file ~line:s.last_line ?run:s.run msg :: !findings
  in
  let m = s.meta in
  let dims = m.dims in
  let nodes = Dims.volume dims in
  let checks = ref 0 in
  let check () = incr checks in

  (* A2: schema version *)
  check ();
  if m.schema < 2 || m.schema > Recorder.schema_version then
    viol_meta A2
      (Printf.sprintf "trace schema %d not supported (auditor understands 2..%d)" m.schema
         Recorder.schema_version);

  (* A3: monotone timestamps *)
  check ();
  let prev = ref m.time in
  List.iter
    (fun (it : Trace.item) ->
      let t = Recorder.time it.entry in
      if t < !prev then viol A3 it (Printf.sprintf "time %.17g regresses below %.17g" t !prev)
      else prev := t)
    s.events;
  (match s.summary with
  | Some (_, stime) when stime < !prev ->
      viol_last A3 (Printf.sprintf "run_summary time %.17g regresses below %.17g" stime !prev)
  | Some _ | None -> ());

  (* A4/A5/A6 + independent metric accumulation, in one sweep. *)
  check ();
  check ();
  check ();
  let jobs : (int, jinfo) Hashtbl.t = Hashtbl.create 64 in
  let owner = Array.make (max nodes 1) free_owner in
  let arrived = ref 0 and finished = ref 0 in
  let kills_total = ref 0 and migrations_total = ref 0 and failures_total = ref 0 in
  let lost_sum = ref 0. in
  let restarts_completed = ref 0 in
  let waits = ref [] and responses = ref [] in
  (* occupancy integrals, engine-style: busy = occupied + down nodes *)
  let busy = ref 0 and demand = ref 0 in
  let anchored = ref false and anchor = ref 0. and last_t = ref 0. in
  let snap_busy = ref 0 and snap_demand = ref 0 in
  let busy_integral = ref 0. and unused_integral = ref 0. in
  let last_kill = ref None in
  let job_of it j =
    match Hashtbl.find_opt jobs j with
    | Some info -> Some info
    | None ->
        viol A6 it (Printf.sprintf "job %d acts before arriving" j);
        None
  in
  let check_box it b =
    if not (box_valid dims ~wrap:m.wrap b) then begin
      viol A4 it (Format.asprintf "box %a is invalid on %s torus" Box.pp b (Dims.to_string dims));
      false
    end
    else true
  in
  (* A box that fails the bounds checks has no well-defined cell set
     (Box.indices asserts); treat it as occupying nothing so the audit
     can keep going after the A4 finding instead of crashing. *)
  let indices_of (b : Box.t) =
    if
      b.shape.sx > 0 && b.shape.sy > 0 && b.shape.sz > 0
      && Coord.in_bounds dims b.base && Shape.fits dims b.shape
    then Box.indices dims b
    else []
  in
  let occupy it j b =
    let bad = ref 0 and down = ref 0 in
    let idx = indices_of b in
    List.iter
      (fun n ->
        if owner.(n) = down_owner then incr down
        else if owner.(n) <> free_owner then incr bad;
        owner.(n) <- j)
      idx;
    if !down > 0 then
      viol A5 it (Printf.sprintf "job %d starts on %d down node(s)" j !down);
    if !bad > 0 then
      viol A5 it
        (Printf.sprintf "job %d overlaps %d node(s) already owned by another job" j !bad);
    busy := !busy + List.length idx - !down
  in
  let vacate it j b =
    let bad = ref 0 in
    let idx = indices_of b in
    List.iter (fun n -> if owner.(n) = j then owner.(n) <- free_owner else incr bad) idx;
    if !bad > 0 then
      viol A5 it (Printf.sprintf "job %d vacates %d node(s) it did not own" j !bad);
    busy := !busy - (List.length idx - !bad)
  in
  let handle_item (it : Trace.item) =
    match it.entry with
    | Job_arrived { job; time; size; run_time = work } -> (
        match Hashtbl.find_opt jobs job with
        | Some _ -> viol A6 it (Printf.sprintf "job %d arrives twice" job)
        | None ->
            Hashtbl.replace jobs job
              { arrival = time; size; work; state = Queued; first_start = None; kills = 0 };
            incr arrived;
            demand := !demand + size)
    | Job_started { job; time; box; restart } -> (
        ignore (check_box it box);
        match job_of it job with
        | None -> ()
        | Some info ->
            (match info.state with
            | Queued -> ()
            | Running _ -> viol A6 it (Printf.sprintf "job %d starts while already running" job)
            | Done -> viol A6 it (Printf.sprintf "job %d starts after finishing" job));
            if Box.volume box < info.size then
              viol A4 it
                (Printf.sprintf "job %d needs %d nodes but its box holds %d" job info.size
                   (Box.volume box));
            if restart <> (info.kills > 0) then
              viol A6 it
                (Printf.sprintf "job %d restart flag is %b after %d kill(s)" job restart info.kills);
            occupy it job box;
            if info.state = Queued then demand := !demand - info.size;
            if info.first_start = None then info.first_start <- Some time;
            info.state <- Running { box; started = time })
    | Job_killed { job; time; node; lost_node_seconds = lost_node_s } -> (
        match job_of it job with
        | None -> ()
        | Some info -> (
            match info.state with
            | Running { box; started } ->
                if not (List.mem node (indices_of box)) then
                  viol A5 it
                    (Printf.sprintf "job %d killed by node %d outside its partition" job node);
                vacate it job box;
                info.kills <- info.kills + 1;
                info.state <- Queued;
                demand := !demand + info.size;
                incr kills_total;
                lost_sum := !lost_sum +. lost_node_s;
                last_kill := Some (time, node, job);
                (* A8: per-kill lost work is bounded by the tenancy *)
                let cap = float_of_int (Box.volume box) *. (time -. started) in
                let slack =
                  float_of_int (Box.volume box)
                  *. time_quantum
                  *. (Float.abs time +. Float.abs started)
                in
                if m.checkpointed then begin
                  if lost_node_s < -.tol || lost_node_s > cap +. slack +. (tol *. Float.max 1. cap)
                  then
                    viol A8 it
                      (Printf.sprintf "job %d lost %.17g node-s, outside [0, %.17g]" job
                         lost_node_s cap)
                end
                else if not (close_enough ~slack lost_node_s cap) then
                  viol A8 it
                    (Printf.sprintf
                       "job %d lost %.17g node-s but the uncheckpointed tenancy held %.17g" job
                       lost_node_s cap)
            | Queued | Done -> viol A6 it (Printf.sprintf "job %d killed while not running" job)))
    | Job_finished { job; time } -> (
        match job_of it job with
        | None -> ()
        | Some info -> (
            match info.state with
            | Running { box; _ } ->
                vacate it job box;
                info.state <- Done;
                incr finished;
                restarts_completed := !restarts_completed + info.kills;
                waits :=
                  (match info.first_start with Some fs -> fs -. info.arrival | None -> 0.)
                  :: !waits;
                responses := (time -. info.arrival) :: !responses
            | Queued | Done -> viol A6 it (Printf.sprintf "job %d finishes while not running" job)))
    | Job_migrated _ -> assert false (* handled in batches below *)
    | Run_meta _ | Run_summary _ -> () (* framing; never among a section's events *)
    | Node_failed { time; node; victim } ->
        if node < 0 || node >= nodes then
          viol A5 it (Printf.sprintf "failure on node %d outside the %d-node torus" node nodes)
        else begin
          incr failures_total;
          (match victim with
          | Some j -> (
              match !last_kill with
              | Some (t, n, k) when t = time && n = node && k = j -> ()
              | Some _ | None ->
                  viol A5 it
                    (Printf.sprintf
                       "node %d claims victim %d but no matching kill precedes it" node j))
          | None ->
              if owner.(node) <> free_owner && owner.(node) <> down_owner then
                viol A5 it
                  (Printf.sprintf "node %d fails with no victim while job %d occupies it" node
                     owner.(node)));
          if m.repair_time > 0. && owner.(node) = free_owner then begin
            owner.(node) <- down_owner;
            incr busy
          end
        end
    | Node_repaired { node; _ } ->
        if node < 0 || node >= nodes then
          viol A5 it (Printf.sprintf "repair of node %d outside the %d-node torus" node nodes)
        else if owner.(node) = down_owner then begin
          owner.(node) <- free_owner;
          busy := !busy - 1
        end
        else viol A5 it (Printf.sprintf "node %d repaired while not down" node)
  in
  let handle_migration_batch (batch : Trace.item list) =
    (* The engine commits a repack two-phase (all vacates before any
       occupies), so a job's new box may overlap another's old box
       within the same batch. *)
    let moves =
      List.filter_map
        (fun (it : Trace.item) ->
          match it.entry with
          | Job_migrated { job; from_box; to_box; _ } -> (
              ignore (check_box it to_box);
              match job_of it job with
              | None -> None
              | Some info -> (
                  match info.state with
                  | Running { box; started } ->
                      if not (Box.equal box from_box) then
                        viol A5 it
                          (Format.asprintf "job %d migrates from %a but occupies %a" job Box.pp
                             from_box Box.pp box);
                      if Box.volume to_box < info.size then
                        viol A4 it
                          (Printf.sprintf "job %d needs %d nodes but its new box holds %d" job
                             info.size (Box.volume to_box));
                      Some (it, job, info, box, started, to_box)
                  | Queued | Done ->
                      viol A6 it (Printf.sprintf "job %d migrates while not running" job);
                      None))
          | _ -> None)
        batch
    in
    List.iter (fun (it, job, _, from_box, _, _) -> vacate it job from_box) moves;
    List.iter
      (fun (it, job, (info : jinfo), _, started, to_box) ->
        occupy it job to_box;
        info.state <- Running { box = to_box; started };
        incr migrations_total)
      moves
  in
  (* Group events into equal-time batches (the engine drains
     simultaneous events before rescheduling and integrates metrics
     once per batch), and migration runs within a batch. *)
  let first_arrival =
    List.find_map
      (fun (it : Trace.item) ->
        match it.entry with Job_arrived { time; _ } -> Some time | _ -> None)
      s.events
  in
  let batch_end t =
    match first_arrival with
    | Some fa when t >= fa ->
        if not !anchored then begin
          anchored := true;
          anchor := t;
          last_t := t
        end
        else begin
          let dt = t -. !last_t in
          if dt > 0. then begin
            busy_integral := !busy_integral +. (float_of_int !snap_busy *. dt);
            let surplus = max 0 (nodes - !snap_busy - !snap_demand) in
            unused_integral := !unused_integral +. (float_of_int surplus *. dt);
            last_t := t
          end
        end;
        snap_busy := !busy;
        snap_demand := !demand
    | Some _ | None -> ()
  in
  let is_migration (it : Trace.item) = match it.entry with Job_migrated _ -> true | _ -> false in
  let rec run_events = function
    | [] -> ()
    | (it : Trace.item) :: _ as items ->
        let t = Recorder.time it.entry in
        let batch, rest =
          let rec split acc = function
            | (x : Trace.item) :: tl when Recorder.time x.entry = t -> split (x :: acc) tl
            | tl -> (List.rev acc, tl)
          in
          split [] items
        in
        let rec go = function
          | [] -> ()
          | (x : Trace.item) :: _ as l when is_migration x ->
              let rec take acc = function
                | y :: tl when is_migration y -> take (y :: acc) tl
                | tl -> (List.rev acc, tl)
              in
              let migrations, tl = take [] l in
              handle_migration_batch migrations;
              last_kill := None;
              go tl
          | x :: tl ->
              handle_item x;
              (* A kill certifies only the node_fail recorded right
                 after it; any other event invalidates the pairing. *)
              (match x.entry with Job_killed _ -> () | _ -> last_kill := None);
              go tl
        in
        go batch;
        batch_end t;
        run_events rest
  in
  run_events s.events;

  (* A7/A8: cross-check the engine's summary against the recomputation.
     Only a complete section carries one. *)
  (match s.summary with
  | None -> ()
  | Some (report, _) ->
      check ();
      check ();
      let conserve name got want =
        if got <> want then
          viol_last A7 (Printf.sprintf "%s: trace shows %d, summary claims %d" name got want)
      in
      conserve "arrived jobs vs run_meta" !arrived m.jobs;
      conserve "arrived jobs vs total_jobs" !arrived report.total_jobs;
      conserve "finished jobs" !finished report.completed_jobs;
      conserve "job kills" !kills_total report.job_kills;
      conserve "migrations" !migrations_total report.migrations;
      conserve "failure events" !failures_total report.failures_injected;
      conserve "restarts over completed jobs" !restarts_completed report.restarts;
      let running_at_end =
        Hashtbl.fold
          (fun _ info acc -> match info.state with Running _ -> acc + 1 | _ -> acc)
          jobs 0
      in
      if running_at_end > 0 then
        viol_last A7 (Printf.sprintf "%d job(s) still running at run_summary" running_at_end);
      let metric ?slack name got want =
        if not (close_enough ?slack got want) then
          viol_last A8 (Printf.sprintf "%s: recomputed %.17g, summary claims %.17g" name got want)
      in
      (* Differences of quantized timestamps (waits, tenancies, spans)
         need the absolute quantization slack; see [time_quantum]. *)
      let time_slack = 4. *. time_quantum *. (Float.abs !anchor +. Float.abs report.makespan) in
      metric "lost node-seconds" !lost_sum report.lost_work;
      if !finished = !arrived && !arrived > 0 then
        metric ~slack:time_slack "makespan" (!last_t -. !anchor) report.makespan;
      if !arrived = 0 then metric "makespan (empty run)" 0. report.makespan;
      (* Extend the integrals to the reported end of span with the final
         state: stale finish events past the last visible event advance
         the engine's clock without changing occupancy. *)
      let end_time = !anchor +. report.makespan in
      if !anchored && end_time > !last_t then begin
        let dt = end_time -. !last_t in
        busy_integral := !busy_integral +. (float_of_int !snap_busy *. dt);
        let surplus = max 0 (nodes - !snap_busy - !snap_demand) in
        unused_integral := !unused_integral +. (float_of_int surplus *. dt)
      end;
      let capacity = report.makespan *. float_of_int nodes in
      let useful =
        Hashtbl.fold
          (fun _ info acc ->
            match info.state with
            | Done -> acc +. (float_of_int info.size *. info.work)
            | _ -> acc)
          jobs 0.
      in
      let util = if capacity > 0. then useful /. capacity else 0. in
      let unused = if capacity > 0. then !unused_integral /. capacity else 0. in
      let busy_fraction = if capacity > 0. then !busy_integral /. capacity else 0. in
      metric "omega_util" util report.util;
      metric "omega_unused" unused report.unused;
      metric "busy_fraction" busy_fraction report.busy_fraction;
      metric "omega_lost" (1. -. util -. unused) report.lost;
      metric "omega identity (util+unused+lost)" (report.util +. report.unused +. report.lost) 1.;
      if report.completed_jobs > 0 then begin
        let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
        metric ~slack:time_slack "avg_wait" (mean !waits) report.avg_wait;
        metric ~slack:time_slack "avg_response" (mean !responses) report.avg_response
      end);
  (List.rev !findings, !checks)

(* ------------------------------------------------------------------ *)
(* Stitch checks: sections sharing a run id must agree. A truncated
   section (crashed sweep) is only certifiable when a complete sibling
   — the journal-resumed re-run — replays it event for event. *)

let meta_eq_sans_parent (a : Recorder.meta) (b : Recorder.meta) =
  { a with time = 0.; parent = None } = { b with time = 0.; parent = None }

let events_prefix (short : Trace.item list) (long : Trace.item list) =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | (x : Trace.item) :: xs, (y : Trace.item) :: ys ->
        x.entry = y.entry && go xs ys
  in
  go short long

let stitch (sections : Trace.section list) =
  let findings = ref [] in
  let checks = ref 0 in
  let by_run = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.section) ->
      let k = Option.value ~default:"" s.run in
      Hashtbl.replace by_run k (s :: Option.value ~default:[] (Hashtbl.find_opt by_run k)))
    sections;
  Hashtbl.iter
    (fun _ group ->
      incr checks;
      let group = List.rev group in
      let completes = List.filter Trace.complete group in
      let truncated = List.filter (fun s -> not (Trace.complete s)) group in
      (* Duplicate complete runs must replay identically. *)
      (match completes with
      | first :: rest ->
          List.iter
            (fun (s : Trace.section) ->
              if
                not
                  (meta_eq_sans_parent first.meta s.meta
                  && events_prefix s.events first.events
                  && events_prefix first.events s.events)
              then
                findings :=
                  Finding.make A2 ~file:s.meta_file ~line:s.meta_line ?run:s.run
                    "duplicate complete sections for this run disagree"
                  :: !findings)
            rest
      | [] -> ());
      List.iter
        (fun (t : Trace.section) ->
          match
            List.find_opt
              (fun (c : Trace.section) ->
                meta_eq_sans_parent t.meta c.meta && events_prefix t.events c.events)
              completes
          with
          | None ->
              findings :=
                Finding.make A2 ~file:t.meta_file ~line:t.meta_line ?run:t.run
                  "run truncated (no run_summary) and no complete resume replays it"
                :: !findings
          | Some c ->
              (* Cross-file seams come from kill-then-resume: the
                 resumed run must carry its parent journal. *)
              if c.meta_file <> t.meta_file && c.meta.parent = None then
                findings :=
                  Finding.make A2 ~file:c.meta_file ~line:c.meta_line ?run:c.run
                    "resumed section completes a truncated run but declares no parent journal"
                  :: !findings)
        truncated)
    by_run;
  (List.rev !findings, !checks)
