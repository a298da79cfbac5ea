type algo =
  | First_fit
  | Random_fit
  | Fault_oblivious
  | Balancing of { confidence : float }
  | Tie_breaking of { accuracy : float }
  | Safest
  | Balancing_history of { half_life : float; threshold : float }
  | Tie_breaking_history of { half_life : float; threshold : float }

type t = {
  profile : Bgl_workload.Profile.t;
  n_jobs : int;
  load : float;
  failures_paper : int;
  algo : algo;
  seed : int;
  config : Bgl_sim.Config.t;
  combine : [ `Product | `Max ];
  false_positive : float;
  failure_amplification : float;
  failure_spec_of : (span:float -> volume:int -> n_events:int -> seed:int -> Bgl_failure.Generator.spec);
  variant_tag : string;
}

let make ?(n_jobs = 2000) ?(load = 1.0) ?failures_paper ?(seed = 11)
    ?(config = Bgl_sim.Config.default) ?dims ?(combine = `Product) ?(false_positive = 0.)
    ?(failure_amplification = 2.0) ~(profile : Bgl_workload.Profile.t) algo =
  let config =
    match dims with None -> config | Some d -> { config with Bgl_sim.Config.dims = d }
  in
  {
    profile;
    n_jobs;
    load;
    failures_paper = Option.value failures_paper ~default:profile.paper_failures;
    algo;
    seed;
    config;
    combine;
    false_positive;
    failure_amplification;
    failure_spec_of = Bgl_failure.Generator.default;
    variant_tag = "";
  }

let injected_failures t =
  let ratio = float_of_int t.n_jobs /. float_of_int t.profile.source_jobs in
  int_of_float
    (Float.round (float_of_int t.failures_paper *. ratio *. t.failure_amplification))

let algo_label = function
  | First_fit -> "first-fit"
  | Random_fit -> "random-fit"
  | Fault_oblivious -> "fault-oblivious"
  | Balancing { confidence } -> Printf.sprintf "balancing(a=%g)" confidence
  | Tie_breaking { accuracy } -> Printf.sprintf "tie-breaking(a=%g)" accuracy
  | Safest -> "safest"
  | Balancing_history { half_life; threshold } ->
      Printf.sprintf "balancing-history(hl=%g,th=%g)" half_life threshold
  | Tie_breaking_history { half_life; threshold } ->
      Printf.sprintf "tie-breaking-history(hl=%g,th=%g)" half_life threshold

(* One parser for every textual algorithm spec (bgl-sim's --algo, the
   service protocol's "algo" field), so the two front-ends can never
   drift apart. *)
let algo_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let param prefix =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      float_of_string_opt (String.sub s plen (String.length s - plen))
    else None
  in
  (* A predictor parameter out of [0, 1], or a half-life that is not
     positive and finite, NaN included, is a parse error here rather
     than a failure once the run starts. *)
  let checked what v algo =
    match Bgl_predict.Predictor.check_param what v with
    | () -> Ok algo
    | exception Invalid_argument msg -> Error msg
  in
  match s with
  | "first-fit" -> Ok First_fit
  | "random" | "random-fit" -> Ok Random_fit
  | "safest" -> Ok Safest
  | "mfp" | "oblivious" | "fault-oblivious" -> Ok Fault_oblivious
  | _ -> (
      match param "balancing:" with
      | Some confidence -> checked "confidence" confidence (Balancing { confidence })
      | None -> (
          match param "tie-breaking:" with
          | Some accuracy -> checked "accuracy" accuracy (Tie_breaking { accuracy })
          | None -> (
              match param "history:" with
              | Some half_life_hours ->
                  let half_life = half_life_hours *. 3600. in
                  if Float.is_finite half_life && half_life > 0. then
                    Ok (Balancing_history { half_life; threshold = 0.5 })
                  else
                    Error
                      (Printf.sprintf "history half-life must be positive and finite, got %g"
                         half_life_hours)
              | None ->
                  Error
                    (Printf.sprintf
                       "unknown algorithm %S (first-fit, random, mfp, safest, balancing:<a>, \
                        tie-breaking:<a>, history:<half-life-hours>)" s))))

(* One check per numeric run parameter, shared by bgl-sim's and
   bgl-trace's flags (and, for the load and the failure count, the
   service protocol's fields), so a bad value is refused before a run
   starts or a request is admitted, not inside the workload or failure
   generator. *)
let check_n_jobs n =
  if n > 0 then Ok n else Error (Printf.sprintf "job count must be positive, got %d" n)

let check_load c =
  if Float.is_finite c && c > 0. then Ok c
  else Error (Printf.sprintf "load-scale coefficient must be positive and finite, got %g" c)

let check_failures n =
  if n >= 0 then Ok n else Error (Printf.sprintf "failure count must be >= 0, got %d" n)

let label t =
  let combine = match t.combine with `Product -> "prod" | `Max -> "max" in
  (* The config is plain data, so a structural digest distinguishes
     scenarios that differ only in engine settings. *)
  let config_digest = Digest.to_hex (Digest.string (Marshal.to_string t.config [])) in
  Printf.sprintf "%s c=%g f=%d(x%g) %s seed=%d n=%d comb=%s fp=%g cfg=%s%s" t.profile.name
    t.load t.failures_paper t.failure_amplification (algo_label t.algo) t.seed t.n_jobs combine
    t.false_positive
    (String.sub config_digest 0 8)
    (if t.variant_tag = "" then "" else " tag=" ^ t.variant_tag)

(* Every stochastic subsystem of a run draws from its own stream,
   derived from the scenario seed by [Rng.split] under a subsystem
   label. Two properties matter:

   - Determinism in the scenario value alone: no stream is shared
     between scenarios, so sweep cells can run in any order — or on
     any domain of a parallel pool — and stay bit-identical to a
     sequential sweep.
   - The labels name the {e subsystem}, not the scenario: scenarios
     differing only in algorithm replay the same workload and failure
     trace, which keeps cross-algorithm comparisons paired. *)
let subseed t label =
  let master = Bgl_stats.Rng.create ~seed:t.seed in
  Int64.to_int (Int64.shift_right_logical (Bgl_stats.Rng.bits64 (Bgl_stats.Rng.split master ~label)) 2)

let synthetic_failures ~log t =
  let volume = Bgl_torus.Dims.volume t.config.dims in
  let n_events = injected_failures t in
  if n_events = 0 then Bgl_trace.Failure_log.make ~name:"no-failures" []
  else
    (* Cover the whole simulated makespan, which can overrun the log
       span under load: failures keep arriving while the backlog
       drains. *)
    let span = Bgl_trace.Job_log.span log *. 1.5 in
    Bgl_failure.Generator.generate
      (t.failure_spec_of ~span ~volume ~n_events ~seed:(subseed t "failures"))

(* The scenario's placement policy, and the predictor it consults —
   also handed to the engine, whose adaptive checkpointing asks it
   whether a placement is doomed. *)
let placement t ~index =
  let predictor_seed = subseed t "predictor" in
  let no_predictor policy = (policy, Bgl_predict.Predictor.null) in
  match t.algo with
  | First_fit -> no_predictor Bgl_sched.Placement.first_fit
  | Random_fit -> no_predictor (Bgl_sched.Placement.random ~seed:predictor_seed)
  | Fault_oblivious -> no_predictor Bgl_sched.Placement.mfp
  | Safest ->
      let predictor = Bgl_predict.Predictor.oracle index in
      (Bgl_sched.Placement.safest ~predictor (), predictor)
  | Balancing_history { half_life; threshold } ->
      let predictor = Bgl_predict.History.ewma ~half_life ~threshold index in
      (Bgl_sched.Placement.balancing ~combine:t.combine ~predictor (), predictor)
  | Tie_breaking_history { half_life; threshold } ->
      let predictor = Bgl_predict.History.ewma ~half_life ~threshold index in
      (Bgl_sched.Placement.tie_breaking ~predictor (), predictor)
  | Balancing { confidence } ->
      let predictor = Bgl_predict.Predictor.balancing ~confidence index in
      (Bgl_sched.Placement.balancing ~combine:t.combine ~predictor (), predictor)
  | Tie_breaking { accuracy } ->
      let predictor =
        if t.false_positive > 0. then
          Bgl_predict.Predictor.noisy ~accuracy ~false_positive:t.false_positive
            ~seed:predictor_seed index
        else Bgl_predict.Predictor.tie_breaking ~accuracy ~seed:predictor_seed index
      in
      (Bgl_sched.Placement.tie_breaking ~predictor (), predictor)

let workload t =
  Bgl_workload.Synthetic.generate
    {
      profile = t.profile;
      n_jobs = t.n_jobs;
      max_nodes = Bgl_torus.Dims.volume t.config.dims;
      seed = subseed t "workload";
    }

let run ?recorder ?(run_tag = "") ?log ?failures t =
  let log =
    Bgl_trace.Job_log.scale_runtime ~c:t.load
      (match log with Some log -> log | None -> workload t)
  in
  let failures =
    match failures with Some f -> f | None -> synthetic_failures ~log t
  in
  let policy, predictor =
    placement t ~index:(Bgl_predict.Failure_index.of_log failures)
  in
  (* The trace run id is the scenario-label digest — the same key the
     sweep journal files cells under, so trace sections and journal
     records cross-reference directly. Payload-driven runs extend the
     label with [run_tag] (the request fingerprint): the label alone
     does not capture inline log contents, and two requests differing
     only in payload must not share a run id. *)
  Bgl_sim.Engine.run ~config:t.config ~predictor ?recorder ~policy ~log ~failures
    ~run_id:(Digest.to_hex (Digest.string (label t ^ run_tag)))
    ~seed:t.seed ()

let run_on ?run_tag ~log ~failures t = run ?run_tag ~log ~failures t
