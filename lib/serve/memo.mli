(** Cross-request result memoization.

    Completed (non-degraded) result frames are cached under the
    request {!Protocol.fingerprint}, so a repeated request is answered
    from memory without touching the executor queue — and answered
    with the {e same bytes}, because result frames are deterministic
    in the request. Bounded FIFO eviction; hit/miss counts feed the
    [health] frame and the bench's hit-ratio number.

    Thread-safe: connection threads probe it at admission while the
    executor inserts. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val find : t -> string -> string option
(** Counts a hit or a miss. *)

val add : t -> string -> string -> unit
(** Insert (or refresh) a result, evicting the oldest entry past
    capacity. *)

val hits : t -> int
val misses : t -> int
