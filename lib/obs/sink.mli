(** Streaming event sinks.

    A sink consumes a stream of typed events. The buffered sink
    retains them (recording-order access via {!contents}); the JSONL
    sink serialises each event to one line and hands it to a writer,
    retaining nothing — so arbitrarily long runs stream to disk in
    constant memory. *)

type 'a t

val buffer : unit -> 'a t
(** Retain every event in memory. *)

val jsonl_writer : to_json:('a -> string) -> (string -> unit) -> 'a t
(** Serialise each event with [to_json] (which must produce one JSON
    value without a trailing newline) and pass it to the writer. The
    writer owns its output, flushing included. *)

val emit : 'a t -> 'a -> unit

val contents : 'a t -> 'a list
(** Buffered events, oldest first. Empty for the JSONL sink. *)
