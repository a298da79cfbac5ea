(** Periodic progress reporting for long runs.

    The engine calls {!tick} once per simulation event with a thunk
    producing the current state snapshot; every [every] ticks the
    heartbeat forces the thunk and prints one line — sim-time, queue
    depth, running jobs, free nodes, and the event rate per {!Clock}
    second since the previous beat — so multi-minute sweeps are no
    longer silent. Off-beat ticks cost one increment and one compare;
    the snapshot is only computed on beats. *)

type snapshot = { sim_time : float; queue_depth : int; running : int; free_nodes : int }

type t

val create : ?out:Format.formatter -> every:int -> unit -> t
(** [out] defaults to [Format.err_formatter].
    @raise Invalid_argument if [every < 1]. *)

val tick : t -> (unit -> snapshot) -> unit

val last : t -> snapshot option
(** The snapshot forced on the most recent beat — the engine state a
    health endpoint can report without touching the engine itself.
    [None] before the first beat. *)
