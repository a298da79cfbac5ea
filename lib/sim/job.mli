(** Per-job simulation state.

    A job moves [Queued -> Running -> Completed]; a node failure while
    running sends it back to [Queued] with its restart count bumped and
    (absent checkpointing) its full work remaining. The [generation]
    counter invalidates finish/checkpoint events scheduled for runs
    that were killed. *)

open Bgl_torus

type run = {
  box : Box.t;
  started : float;
  finish_time : float;  (** scheduled completion (wall clock) *)
  generation : int;
  work_at_start : float;  (** remaining useful work when the run began *)
  interval : float option;  (** checkpoint interval in force, if any *)
}

type state = Queued | Running of run | Completed

type t = {
  spec : Bgl_trace.Job_log.job;
  volume : int;  (** partition volume after size rounding *)
  mutable state : state;
  mutable generation : int;
  mutable remaining : float;  (** useful work still to execute *)
  mutable restarts : int;
  mutable first_start : float option;
  mutable completion : float option;
  mutable lost_node_seconds : float;  (** busy time destroyed by failures *)
  mutable checkpoints_taken : int;
}

val create : Bgl_trace.Job_log.job -> volume:int -> t

type edge = Start of run | Migrate of run | Complete | Kill
(** A lifecycle edge. [Start] and [Migrate] carry the new run;
    [Complete] and [Kill] close the current one. *)

exception Illegal_transition of { job : int; edge : string; state : string }

val legal : state -> edge -> bool
(** The legality table: [Queued --Start--> Running],
    [Running --Migrate--> Running], [Running --Complete--> Completed],
    [Running --Kill--> Queued]. Everything else is illegal. *)

val transition : t -> edge -> unit
(** The {e only} sanctioned write to {!field-state} — the typed lint
    rule R10 fails the build on any other [state <-] site. Applies the
    edge if {!legal}, emits a [bgl_job_transitions_total{edge=...}]
    obs counter increment, and raises {!Illegal_transition} otherwise,
    leaving the job untouched. *)

val is_completed : t -> bool

val current_run : t -> run option

val wait_time : t -> float
(** First start minus arrival. Only valid once started. *)

val response_time : t -> float
(** Completion minus arrival. Only valid once completed. *)

val bounded_slowdown : ?tau:float -> t -> float
(** Bounded slowdown with threshold [tau] (default 10 s, the paper's
    Γ): [max(response, tau) / max(run_time, tau)]. The paper prints
    [min] in the denominator, which would make the metric diverge even
    for zero-wait jobs; we follow the standard Feitelson definition the
    rest of the paper's numbers are consistent with. *)
