(** Time-indexed view of a failure log.

    Both the predictors (which consult the log as their ground truth,
    per Section 4 of the paper) and the simulation engine (which must
    kill jobs when a node they occupy fails) need fast "failures of
    node n in window (t0, t1]" queries; this index provides them in
    O(log events-per-node) via per-node sorted arrays. *)

type t

val of_log : Bgl_trace.Failure_log.t -> t

val has_failure_in : t -> node:int -> t0:float -> t1:float -> bool
(** Any event for [node] with time in the half-open window [(t0, t1\]].
    An empty or inverted window yields [false]. *)

val first_failure_in : t -> node:int -> t0:float -> t1:float -> float option
(** Earliest such event time. *)

val count_in : t -> node:int -> t0:float -> t1:float -> int

val next_event_after : t -> after:float -> (float * int) option
(** Earliest event in the whole log strictly after [after], as
    [(time, node)] — how the engine schedules failure injections. *)

val events_at : t -> time:float -> int list
(** Nodes with an event at exactly [time] (simultaneous burst
    members). *)
