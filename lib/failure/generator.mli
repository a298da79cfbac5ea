(** Synthetic failure-trace generation.

    Stands in for the proprietary one-year, 350-node cluster failure
    logs of Sahoo et al. (2003) that the paper replays. The generator
    reproduces the two structural properties the paper's analysis
    leans on:

    - {b temporal burstiness} — "many instances of multiple failure
      events, simultaneously reported from different nodes": events
      arrive in bursts (Poisson burst arrivals, geometric burst sizes,
      small intra-burst jitter);
    - {b spatial skew} — a minority of nodes produces a majority of
      events: per-node propensities follow a Zipf law over a seeded
      random permutation of the torus.

    The event count is exact, matching the paper's practice of scaling
    traces to a fixed number of failures (4000 for NASA/SDSC runs,
    1000 for LLNL runs), and the span is aligned to the job log. *)

type spec = {
  n_events : int;  (** exact number of events to produce *)
  span : float;  (** events lie in [\[0, span\]] *)
  volume : int;  (** number of nodes (torus volume) *)
  burst_mean_size : float;  (** mean events per burst, >= 1 *)
  burst_jitter : float;  (** max seconds between events of one burst *)
  node_skew : float;  (** Zipf exponent of per-node propensity, >= 0 *)
  seed : int;
}

val default : span:float -> volume:int -> n_events:int -> seed:int -> spec
(** Burstiness and skew defaults calibrated to the qualitative shape
    reported for the source logs: mean burst size 3, 30 s jitter,
    Zipf skew 1.4. *)

val generate : spec -> Bgl_trace.Failure_log.t
(** Deterministic in [seed]. Produces exactly [n_events] events.

    The node permutation and per-node weights live in a per-domain
    scratch ([Domain.DLS]) of [volume] cells, reused by every trace of
    the same volume the domain generates and reallocated when the
    volume changes. Each trace overwrites every cell before reading
    it, so the output depends on [spec] alone. *)

val poisson_uniform : span:float -> volume:int -> n_events:int -> seed:int -> Bgl_trace.Failure_log.t
(** Baseline trace with no burstiness and no skew (independent uniform
    times, uniform nodes) — the ablation comparator. *)
