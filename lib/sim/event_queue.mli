(** The simulator's future-event list: a binary min-heap ordered by
    [(time, insertion sequence)], so simultaneous events are processed
    in the order they were scheduled — which keeps runs deterministic
    and lets the engine batch same-timestamp failure bursts. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on NaN time. *)

val peek : 'a t -> (float * 'a) option
val pop : 'a t -> (float * 'a) option

val pop_if_at : 'a t -> time:float -> 'a option
(** Pop the head only if its time equals [time] exactly — used to
    drain a batch of simultaneous events. *)

val retains : 'a t -> 'a -> bool
(** Whether the backing array still holds a physically-equal reference
    to [x] anywhere — including vacated slots beyond the live heap. Exposed
    for the space-leak regression tests; only meaningful for boxed
    payloads. *)
