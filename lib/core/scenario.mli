(** One fully specified simulation run: workload profile, load scale,
    failure intensity, scheduling algorithm, seed. This is the unit the
    figure sweeps iterate over.

    Failure counts are expressed on the {e paper's} x-axis scale (the
    counts Section 6.2 pairs with the multi-month archive logs) and
    converted to injected counts by the ratio of our synthetic job
    count to the source log's job count, preserving failures-per-job —
    the coupling that actually determines how much work failures
    destroy. See DESIGN.md. *)

type algo =
  | First_fit  (** cheapest baseline; not in the paper *)
  | Random_fit  (** uniform candidate choice; lower-bound baseline *)
  | Fault_oblivious  (** Krevat's MFP heuristic, no prediction (a = 0) *)
  | Balancing of { confidence : float }  (** Section 5.2.1 *)
  | Tie_breaking of { accuracy : float }  (** Section 5.2.2 *)
  | Safest  (** minimise P_f only, with an oracle; stability extreme *)
  | Balancing_history of { half_life : float; threshold : float }
      (** the balancing algorithm driven by the honest
          {!Bgl_predict.History.ewma} predictor instead of the paper's
          simulated-confidence one *)
  | Tie_breaking_history of { half_life : float; threshold : float }

type t = {
  profile : Bgl_workload.Profile.t;
  n_jobs : int;
  load : float;  (** the paper's load-scale coefficient c *)
  failures_paper : int;  (** failure count on the paper's scale *)
  algo : algo;
  seed : int;
  config : Bgl_sim.Config.t;
  combine : [ `Product | `Max ];  (** P_f combination for balancing *)
  false_positive : float;  (** tie-breaking predictor extension; 0 = paper *)
  failure_amplification : float;
      (** extra multiplier on the scaled failure count (default 2.0):
          our synthetic logs are ~20x shorter than the archive logs, so
          at a faithful failures-per-job ratio the per-point kill count
          is too small for stable statistics; the amplification doubles
          the intensity to keep every sweep point statistically
          meaningful. Recorded in EXPERIMENTS.md. *)
  failure_spec_of : (span:float -> volume:int -> n_events:int -> seed:int -> Bgl_failure.Generator.spec);
      (** how failure traces are drawn; default {!Bgl_failure.Generator.default} *)
  variant_tag : string;
      (** free-form marker distinguishing otherwise-identical scenarios
          that differ in [failure_spec_of] (functions cannot be
          compared); included in {!label} *)
}

val make :
  ?n_jobs:int ->
  ?load:float ->
  ?failures_paper:int ->
  ?seed:int ->
  ?config:Bgl_sim.Config.t ->
  ?dims:Bgl_torus.Dims.t ->
  ?combine:[ `Product | `Max ] ->
  ?false_positive:float ->
  ?failure_amplification:float ->
  profile:Bgl_workload.Profile.t ->
  algo ->
  t
(** Defaults: 2000 jobs, load 1.0, the profile's paper failure count,
    seed 11, {!Bgl_sim.Config.default}, [`Product], no false
    positives. [dims] overrides the machine size of [config] — the
    sweep drivers thread {!Figures.scale}'s dims through it, and the
    config digest in {!label} keys journal cells on it. *)

val injected_failures : t -> int
(** The failure count actually injected after job-count scaling. *)

val algo_label : algo -> string

val algo_of_string : string -> (algo, string) result
(** Parse a textual algorithm spec — ["first-fit"], ["random"],
    ["mfp"], ["safest"], ["balancing:<a>"], ["tie-breaking:<a>"],
    ["history:<half-life-hours>"] — the one parser behind bgl-sim's
    [--algo] and the service protocol's ["algo"] field. *)

val check_n_jobs : int -> (int, string) result
(** [Ok n] for a positive job count, an [Error] message otherwise. *)

val check_load : float -> (float, string) result
(** [Ok c] for a positive, finite load-scale coefficient; an [Error]
    message for zero, negative, NaN or infinite [c]. The one check
    behind bgl-sim's and bgl-trace's [--load] and the service
    protocol's ["load"] field. *)

val check_failures : int -> (int, string) result
(** [Ok n] for a failure count on the paper's scale that is zero or
    more; an [Error] message for a negative one, which
    {!injected_failures} would otherwise scale into a negative event
    count or round to none. The one check behind bgl-sim's
    [--failures] and the service protocol's ["failures"] field. *)

val label : t -> string

val run :
  ?recorder:Bgl_sim.Recorder.t ->
  ?run_tag:string ->
  ?log:Bgl_trace.Job_log.t ->
  ?failures:Bgl_trace.Failure_log.t ->
  t ->
  Bgl_sim.Engine.outcome
(** The one path from a scenario to {!Bgl_sim.Engine.run}. Every
    stochastic input the caller does not supply — the workload [log],
    the [failures] trace, the predictor — draws from its own stream
    split from [seed] under a subsystem label, so no state is shared
    between runs: sweep cells may execute in any order, on any domain,
    with identical results, and scenarios differing only in [algo] see
    the same workload and failure trace (paired comparisons).

    An explicit [log] (an SWF replay or payload) has its runtimes
    scaled by the load coefficient exactly as a synthetic one is;
    without [failures], the synthetic trace covers the scaled log (see
    {!synthetic_failures}). The predictor the policy consults is also
    the engine's, so adaptive checkpointing sees it. [recorder]
    receives every lifecycle transition and does not change the
    outcome. The trace run id is the digest of {!label} followed by
    [run_tag] (default [""]; e.g. a request fingerprint, which a
    payload run needs because the label does not capture the
    payload). *)

val run_on :
  ?run_tag:string ->
  log:Bgl_trace.Job_log.t ->
  failures:Bgl_trace.Failure_log.t ->
  t ->
  Bgl_sim.Engine.outcome
(** [run ?run_tag ~log ~failures t]. *)

val workload : t -> Bgl_trace.Job_log.t
(** The synthetic log {!run} draws when given none, before load
    scaling. *)

val synthetic_failures : log:Bgl_trace.Job_log.t -> t -> Bgl_trace.Failure_log.t
(** The failure trace {!run} would inject for this scenario over
    [log]'s span (already load-scaled) — for callers pairing an
    explicit workload with the scenario's synthetic failures. *)
