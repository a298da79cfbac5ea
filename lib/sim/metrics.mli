(** Simulation metrics (Sections 3.4 and 6.1 of the paper).

    Timing metrics are per-job: wait time t_w, response time t_r, and
    bounded slowdown t_b with threshold Γ. Capacity metrics are
    machine-wide over the simulation span T = max finish − min arrival:

    - ω_util = Σ s_j·t_e / (T·N) — useful work accomplished;
    - ω_unused = ∫ max(0, f(t) − q(t)) / (T·N) dt — free capacity not
      demanded by any waiting job;
    - ω_lost = 1 − ω_util − ω_unused — capacity destroyed by failures,
      fragmentation, and scheduling delay.

    The accumulator integrates f(t) − q(t) piecewise between events;
    the engine reports occupancy/demand changes through {!advance}. *)

type t
(** Mutable accumulator owned by the engine. *)

val create : nodes:int -> slowdown_tau:float -> t

val advance : t -> now:float -> free:int -> queued_demand:int -> unit
(** Integrate the interval since the previous call with the {e
    previous} occupancy, then record the new state. The first call
    anchors the integration start (min arrival). Calls with [now]
    before the anchor are ignored. *)

val record_completion : t -> Job.t -> unit
val record_failure_event : t -> unit
val record_job_kill : t -> lost_node_seconds:float -> unit
val record_migration : t -> unit
val record_checkpoint : t -> unit

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
  busy_fraction : float;  (** measured node-busy integral / (T·N) *)
  makespan : float;  (** T *)
  failures_injected : int;
  job_kills : int;
  restarts : int;
  lost_work : float;  (** node-seconds destroyed by kills *)
  migrations : int;
  checkpoints : int;
}

val report : t -> jobs:Job.t list -> total_jobs:int -> report
(** Finalise. [jobs] are the completed jobs; integration is cut at the
    last completion (capacity integrals are only defined on the span,
    and trailing failure events must not dilute them). *)

val pp_report : Format.formatter -> report -> unit

val report_to_registry : Bgl_obs.Registry.t -> report -> unit
(** Publish every report field as a [bgl_report_*] gauge, so one
    [--metrics-out] snapshot carries the paper's capacity and timing
    metrics next to the live engine counters. *)

val report_to_json : report -> string
(** One-line JSON object, one member per field. Floats are emitted
    with 17 significant digits so {!report_of_json} round-trips them
    bit-exactly — the property the sweep journal's byte-identical
    resume rests on. Non-finite values encode as [null]. *)

val report_of_json : Bgl_obs.Jsonl.value -> (report, string) result
(** Inverse of {!report_to_json}; [Error] names the missing or
    ill-typed member. Never raises. *)
