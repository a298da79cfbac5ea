(** Deterministic pseudo-random number generation.

    All stochastic components of the simulator draw from this module so
    that every experiment is exactly reproducible from a seed. The
    generator is SplitMix64, which is fast, has a 64-bit state, passes
    BigCrush, and supports cheap stream splitting — each subsystem
    (workload generator, failure generator, predictor, scheduler) gets
    an independent stream derived from the master seed, so adding draws
    in one subsystem never perturbs another. *)

type t
(** A mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> label:string -> t
(** [split t ~label] derives a new independent stream from [t]'s
    current state and [label]. Splitting with distinct labels yields
    decorrelated streams; [t] itself is advanced once. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly uniform, by
    rejection sampling of the top partial block rather than a biased
    modulo. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** A fair coin. *)

val shuffle : t -> int array -> unit
(** In-place Fisher–Yates shuffle. Every caller shuffles indices, and
    an [int array] lets each swap skip the float-array check and the
    write barrier a polymorphic array pays. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on
    an empty array. *)

val hash_float : seed:int -> int -> int -> float
(** [hash_float ~seed a b] is a deterministic pseudo-uniform value in
    [\[0, 1)] depending only on [(seed, a, b)]. Used where a stochastic
    answer must be stable across repeated queries with the same
    arguments (e.g. the tie-breaking predictor's response for a given
    node and failure event). *)
