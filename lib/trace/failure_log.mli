(** Failure logs: timestamped fatal events on individual nodes.

    The paper drives the simulator with a failure trace aligned to the
    job log's time span (Section 6.2). Events are sorted by time; node
    ids are linear supernode indices into the simulated torus. The
    on-disk format is one event per line, ["<time> <node>"], with [#]
    comments. *)

type event = { time : float; node : int }
type t = { name : string; events : event array }

val make : name:string -> event list -> t
(** Sorts by time and validates node ids (non-negative) and times
    (finite and non-negative): a NaN or infinite time raises
    [Invalid_argument] instead of sorting to an end of the log. *)

val length : t -> int
val span : t -> float

val nodes : t -> int list
(** Sorted distinct node ids appearing in the log. *)

val truncate : t -> keep:int -> t
(** First [keep] events in time order — how the fig-3/4 sweeps vary the
    failure rate from one generated trace. *)

val scale_count : t -> target:int -> seed:int -> t
(** Uniform random subsample (or identity if [target >= length]): the
    paper's "scaled up/down the number of hardware failures" step.
    Deterministic in [seed]. *)

val shift : t -> offset:float -> t
(** Add [offset] to every timestamp (align a trace to a log start). *)

val validate_nodes : t -> volume:int -> (unit, string) result
(** Check every node id is within [\[0, volume)]. *)

val merge : name:string -> t list -> t
(** Union of the events of several logs, re-sorted. *)

val of_string : name:string -> string -> (t, string) result
(** Parses the on-disk format. A line whose time is not a finite,
    non-negative float (["nan"], ["inf"], ["-1"]) or whose node is not
    a non-negative int is an [Error] naming its line number. *)

val to_string : t -> string
val load : string -> (t, string) result
val save : t -> string -> unit
val pp_stats : Format.formatter -> t -> unit
