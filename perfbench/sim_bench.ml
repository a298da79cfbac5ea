(* The simulation workloads: set-up, untraced timed passes, and the
   traced run that times each layer's public calls from outside the
   library. *)

open Bgl_torus
module Scenario = Bgl_core.Scenario
module Cache = Bgl_partition.Finder.Cache
module Registry = Bgl_obs.Registry

type spec = {
  name : string;
  dims : Dims.t;
  algo : Scenario.algo;
  n_jobs : int;  (** per simulation *)
  failures_paper : int option;  (** [None]: the profile's own paper count *)
  batch : int;  (** simulations per pass, each on its own inputs *)
  traced : int;  (** simulations the traced run covers, a prefix of the batch *)
}

(* A pass simulates [batch] independent input sets drawn from the seed.
   One simulation's run time moves by 10-25% from one input set to the
   next, so a single simulation per seed would make the figures depend
   mostly on which seeds were drawn; a batch's mean moves by a fraction
   of that. Each batch fills about 25 s of a 30 s run. *)

(* The paper's setting (§5.2.1, the middle of fig 3's x-axis) at the
   paper's 2000 jobs per simulation. *)
let paper_balancing =
  {
    name = "paper-balancing";
    dims = Dims.bgl;
    algo = Scenario.Balancing { confidence = 0.5 };
    n_jobs = 2000;
    failures_paper = Some 2000;
    batch = 24;
    traced = 4;
  }

(* The full 64x32x32 machine under first-fit: the counted finder and
   prefix sync dominate, MFP and the predictor are never called. *)
let full_machine =
  {
    name = "full-machine";
    dims = Dims.bgl_full;
    algo = Scenario.First_fit;
    n_jobs = 100;
    failures_paper = None;
    batch = 32;
    traced = 6;
  }

let sub_seed ~seed i = (seed * 1000) + i

let scenario spec ~seed =
  Scenario.make ~n_jobs:spec.n_jobs ?failures_paper:spec.failures_paper ~seed ~dims:spec.dims
    ~profile:Bgl_workload.Profile.sdsc spec.algo

type input = { sc : Scenario.t; log : Bgl_trace.Job_log.t; failures : Bgl_trace.Failure_log.t }

let setup_phases =
  [ "partition.catalogue_s"; "torus.create_s"; "workload.generate_s"; "failure.generate_s"; "predict.index_s" ]

(* Runs [f], passing its duration to [note] under the layer metric
   [name]. *)
let phase note name f =
  let r, dt = Util.time f in
  note name dt;
  r

let ignore_phase _ _ = ()

(* The shape catalogue and an empty grid with its finder cache and
   summed-area table; the catalogue is memoised for the process. *)
let prepare ?(note = ignore_phase) spec =
  phase note "partition.catalogue_s" (fun () ->
      ignore (Bgl_partition.Shapes.levels_desc spec.dims);
      ignore (Bgl_partition.Shapes.feasible_volumes spec.dims));
  phase note "torus.create_s" (fun () ->
      let grid = Grid.create ~wrap:true spec.dims in
      ignore (Cache.table (Cache.create grid)))

(* Input [i] of the batch: its job log and failure trace, and the
   predictor's failure index built as [Scenario.run_on] builds it. *)
let input ?(note = ignore_phase) spec ~seed i =
  let seed = sub_seed ~seed i in
  let sc = scenario spec ~seed in
  let log =
    phase note "workload.generate_s" (fun () ->
        Bgl_workload.Synthetic.generate
          { profile = sc.profile; n_jobs = sc.n_jobs; max_nodes = Dims.volume spec.dims; seed })
  in
  let failures =
    phase note "failure.generate_s" (fun () ->
        Scenario.synthetic_failures ~log:(Bgl_trace.Job_log.scale_runtime log ~c:sc.load) sc)
  in
  phase note "predict.index_s" (fun () -> ignore (Bgl_predict.Failure_index.of_log failures));
  { sc; log; failures }

(* What an invocation pays before its simulations start: [prepare], then
   every input of the batch. Returns each phase's total duration, named
   after the layer it calls. The inputs are dropped: a pass regenerates
   each one just before its run, so the heap a run sees holds only its
   own input, however large the batch. *)
let setup spec ~seed =
  let totals = Hashtbl.create 8 in
  let note name dt = Hashtbl.replace totals name (dt +. Option.value (Hashtbl.find_opt totals name) ~default:0.) in
  prepare ~note spec;
  for i = 0 to spec.batch - 1 do
    ignore (Sys.opaque_identity (input ~note spec ~seed i))
  done;
  List.map (fun name -> (name, Hashtbl.find totals name)) setup_phases

let run inp = Scenario.run_on ~log:inp.log ~failures:inp.failures inp.sc

(* [f ()] timed from a compacted heap, so no run inherits another's
   garbage. *)
let timed_run f =
  Gc.compact ();
  Util.time f

let report_json (o : Bgl_sim.Engine.outcome) = Bgl_sim.Metrics.report_to_json o.report

(* --- correctness --------------------------------------------------- *)

let digest s = Digest.to_hex (Digest.string s)

(* perfbench/digests/<workload>.txt holds "<seed> <md5>" lines: the MD5
   of the batch's report JSONs joined by newlines. *)
let expected_digest spec ~seed =
  let path = Filename.concat "perfbench/digests" (spec.name ^ ".txt") in
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ s; d ] when int_of_string_opt s = Some seed -> Some d
           | _ -> None)

(* Checks the first pass's reports against the stored digest. A seed
   without one is checked for run-to-run identity only, and its digest
   goes to stderr in the file's line format. *)
let batch_matches spec ~seed reports =
  let d = digest (String.concat "\n" (Array.to_list reports)) in
  match expected_digest spec ~seed with
  | Some expected -> d = expected
  | None ->
      Util.log "digest %s %d %s" spec.name seed d;
      true

(* A simulation's failed jobs: those left incomplete, or all of them
   when its report is not the reference one. *)
let failed_jobs (o : Bgl_sim.Engine.outcome) ~reference =
  if report_json o = reference then o.report.total_jobs - o.report.completed_jobs else o.report.total_jobs

(* --- untraced measurement ------------------------------------------ *)

type measured = { run_s : float; attempted : int; failed : int }

(* Whole passes over the batch while another one fits in [seconds] (at
   least one), with a calibration sample before every simulation.
   [run_s] is the mean over the batch of each simulation's median
   [Scenario.run_on] time across passes, as measured. Every pass must
   reproduce the first one's reports, and the first pass the stored
   digest. *)
let measure spec ~seed ~seconds calibration =
  prepare spec;
  let times = Array.make spec.batch [] and reports = Array.make spec.batch "" in
  let attempted = ref 0 and failed = ref 0 in
  let t0 = Util.now () in
  let rec go passes =
    for i = 0 to spec.batch - 1 do
      let inp = input spec ~seed i in
      Util.calibrate calibration;
      let o, dt = timed_run (fun () -> run inp) in
      times.(i) <- dt :: times.(i);
      if passes = 0 then reports.(i) <- report_json o;
      attempted := !attempted + o.report.total_jobs;
      failed := !failed + failed_jobs o ~reference:reports.(i)
    done;
    let passes = passes + 1 in
    let elapsed = Util.now () -. t0 in
    if elapsed *. (1. +. (1. /. float_of_int passes)) <= seconds then go passes
  in
  go 0;
  if not (batch_matches spec ~seed reports) then failed := !attempted;
  {
    run_s = Util.mean (Array.to_list (Array.map Util.median times));
    attempted = !attempted;
    failed = !failed;
  }

(* --- tracing from outside ------------------------------------------ *)

(* Call count and busy time of one wrapped public function. *)
type probe = { mutable calls : int; mutable secs : float }

let probe () = { calls = 0; secs = 0. }

let timed p f =
  let t0 = Util.now () in
  let r = f () in
  p.secs <- p.secs +. (Util.now () -. t0);
  p.calls <- p.calls + 1;
  r

let per_call_us p = if p.calls = 0 then 0. else p.secs /. float_of_int p.calls *. 1e6

type policy_trace = {
  choose : probe;
  predict : probe;
  mutable candidates : int;
  mutable declined : int;
}

let policy_trace () = { choose = probe (); predict = probe (); candidates = 0; declined = 0 }

let uses_mfp (sc : Scenario.t) = sc.algo <> Scenario.First_fit

(* The scenario's placement policy rebuilt from [Bgl_sched.Placement] as
   [Scenario.run_on] builds it, with [choose] and the predictor's
   closures timed. Each traced report must equal the untraced one byte
   for byte, which proves the rebuilt policy is the same policy. *)
let traced_policy pt (sc : Scenario.t) index =
  let predictor (p : Bgl_predict.Predictor.t) =
    {
      p with
      node_prob = (fun ~node ~now ~horizon -> timed pt.predict (fun () -> p.node_prob ~node ~now ~horizon));
      node_will_fail =
        (fun ~node ~now ~horizon -> timed pt.predict (fun () -> p.node_will_fail ~node ~now ~horizon));
    }
  in
  let base =
    match sc.algo with
    | Scenario.First_fit -> Bgl_sched.Placement.first_fit
    | Scenario.Fault_oblivious -> Bgl_sched.Placement.mfp
    | Scenario.Balancing { confidence } ->
        Bgl_sched.Placement.balancing ~combine:sc.combine
          ~predictor:(predictor (Bgl_predict.Predictor.balancing ~confidence index))
          ()
    | algo -> invalid_arg ("no traced policy for " ^ Scenario.algo_label algo)
  in
  {
    base with
    choose =
      (fun ctx ~job ~volume ~candidates ->
        pt.candidates <- pt.candidates + List.length candidates;
        let r = timed pt.choose (fun () -> base.choose ctx ~job ~volume ~candidates) in
        if r = None then pt.declined <- pt.declined + 1;
        r);
  }

(* [Scenario.run_on]'s steps, spelled out so the policy can be traced:
   the outcome and the [Engine.run] wall time. *)
let traced_run ?recorder pt inp =
  let sc = inp.sc in
  let log = Bgl_trace.Job_log.scale_runtime inp.log ~c:sc.load in
  let policy = traced_policy pt sc (Bgl_predict.Failure_index.of_log inp.failures) in
  timed_run (fun () ->
      Bgl_sim.Engine.run ~config:sc.config ~policy ~log ~failures:inp.failures ?recorder
        ~run_id:(digest (Scenario.label sc)) ~seed:sc.seed ())

let registry_counts reg =
  let c name = Registry.counter_value (Registry.counter reg name) in
  let hits = c "bgl_finder_cache_hits_total" and misses = c "bgl_finder_cache_misses_total" in
  [
    ( "sim.events",
      List.fold_left
        (fun acc kind -> acc +. c (Printf.sprintf "bgl_sim_events_total{kind=%S}" kind))
        0.
        [ "arrival"; "finish"; "failure"; "repair" ] );
    ("sim.job_starts", c "bgl_sim_job_starts_total");
    ("sim.job_kills", c "bgl_sim_job_kills_total");
    ("finder.counted_queries", c "bgl_finder_counted_queries_total");
    ("finder.counted_skips", c "bgl_finder_counted_skips_total");
    ("finder.cache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("prefix.incremental_updates", c "bgl_prefix_updates_total{kind=\"incremental\"}");
    ("prefix.full_rebuilds", c "bgl_prefix_updates_total{kind=\"full\"}");
  ]

(* The layer replay: re-drive a run's recorded occupancy stream through
   the public Grid / Finder.Cache / Mfp calls the engine makes inside
   [Engine.run], timing each. Before every start it syncs the table,
   selects the capped candidates and, for MFP policies, computes the MFP
   and probes every candidate, as a placement does. Runs with a repair
   time (down nodes) are out of scope: no workload sets one. *)
let replay (sc : Scenario.t) entries =
  let config = sc.config in
  let grid = Grid.create ~wrap:config.wrap config.dims in
  let cache = Cache.create grid in
  let cap = Option.value config.candidate_cap ~default:max_int in
  let boxes = Hashtbl.create 1024 in
  let sync = probe () and select = probe () and mutate = probe () in
  let mfp = probe () and mfp_after = probe () in
  let occupy job box =
    timed mutate (fun () ->
        Grid.occupy grid box ~owner:job;
        Cache.note_box cache box);
    Hashtbl.replace boxes job box
  in
  let vacate job box =
    timed mutate (fun () ->
        Grid.vacate grid box ~owner:job;
        Cache.note_box cache box);
    Hashtbl.remove boxes job
  in
  List.iter
    (function
      | Bgl_sim.Recorder.Job_started { job; box; _ } ->
          let volume = Box.volume box in
          ignore (timed sync (fun () -> Cache.table cache));
          let candidates = timed select (fun () -> Cache.select cache ~volume ~cap) in
          if uses_mfp sc then begin
            ignore (timed mfp (fun () -> Bgl_partition.Mfp.volume ~cache grid));
            List.iter
              (fun c -> ignore (timed mfp_after (fun () -> Bgl_partition.Mfp.volume_after ~cache grid c)))
              candidates
          end;
          occupy job box
      | Job_finished { job; _ } | Job_killed { job; _ } -> vacate job (Hashtbl.find boxes job)
      | Job_migrated { job; from_box; to_box; _ } ->
          vacate job from_box;
          occupy job to_box
      | Run_meta _ | Job_arrived _ | Node_failed _ | Node_repaired _ | Run_summary _ -> ())
    entries;
  [
    ("finder.select_us", per_call_us select);
    ("prefix.sync_us", per_call_us sync);
    ("torus.mutate_us", per_call_us mutate);
    ("mfp.volume_us", per_call_us mfp);
    ("mfp.volume_after_us", per_call_us mfp_after);
  ]

type layers = { metrics : (string * float) list; attempted : int; failed : int }

(* The traced measurement over the first [spec.traced] inputs: each is
   run untraced and traced, in alternating order, under one live
   registry that only the traced runs see. Times are means per
   simulation, counts are totals over the prefix, so counts repeat
   exactly for a seed. The first input is then run once more with a
   recorder, and its occupancy stream is replayed layer by layer. Every
   traced report must equal its untraced one. *)
let trace spec ~seed ~setup_phases =
  prepare spec;
  let n = min spec.traced spec.batch in
  let pt = policy_trace () in
  let reg = Registry.create () in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  for i = 0 to n - 1 do
    let inp = input spec ~seed i in
    let plain () =
      let o, dt = timed_run (fun () -> run inp) in
      untraced_s := !untraced_s +. dt;
      o
    in
    let traced () =
      Bgl_obs.Runtime.set_registry reg;
      Fun.protect
        ~finally:(fun () -> Bgl_obs.Runtime.set_registry Registry.noop)
        (fun () ->
          let o, dt = traced_run pt inp in
          traced_s := !traced_s +. dt;
          o)
    in
    let reference, o =
      if i mod 2 = 0 then
        let r = plain () in
        (r, traced ())
      else
        let o = traced () in
        (plain (), o)
    in
    let reference = report_json reference in
    attempted := !attempted + o.report.total_jobs;
    failed := !failed + failed_jobs o ~reference
  done;
  let first = input spec ~seed 0 in
  let recorder = Bgl_sim.Recorder.create () in
  ignore (traced_run ~recorder (policy_trace ()) first);
  let per_sim x = x /. float_of_int n in
  let metrics =
    setup_phases
    @ [
        ("sim.run_s", per_sim !traced_s);
        ("sim.self_s", per_sim (!traced_s -. pt.choose.secs));
        ("sched.choose_calls", float_of_int pt.choose.calls);
        ("sched.choose_s", per_sim pt.choose.secs);
        ("sched.choose_us", per_call_us pt.choose);
        ( "sched.candidates_mean",
          if pt.choose.calls = 0 then 0. else float_of_int pt.candidates /. float_of_int pt.choose.calls );
        ("sched.declined", float_of_int pt.declined);
        ("predict.node_prob_calls", float_of_int pt.predict.calls);
        ("predict.node_prob_s", per_sim pt.predict.secs);
        ("trace.overhead", (!traced_s /. !untraced_s) -. 1.);
      ]
    @ registry_counts reg
    @ replay first.sc (Bgl_sim.Recorder.entries recorder)
  in
  { metrics; attempted = !attempted; failed = !failed }
