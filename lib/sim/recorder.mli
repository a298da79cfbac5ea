(** Execution-trace recording, and the trace's one wire format.

    An optional observer the engine notifies on every job lifecycle
    transition and failure injection. {!entry} is the only trace type
    in the repository: the engine records it, {!entry_to_json} prints
    it as one JSON line, and {!entry_of_json} — right beside it — parses
    that line back, so the printer and the parser cannot drift apart
    without a type error. The {!Bgl_audit} certificate checker,
    `bgl-trace inspect`, [Bgl_core.Timeline] and
    `examples/schedule_forensics.ml` all consume entries; none keeps a
    view of its own.

    Trace framing (schema version {!schema_version}): the engine
    brackets every run with a leading {!entry.Run_meta} (declaring the
    torus, policy and provenance) and a trailing {!entry.Run_summary}
    (its own metric totals), and announces every job submission as
    {!entry.Job_arrived} — together enough for an external auditor to
    re-verify the schedule with no access to engine state. *)

open Bgl_torus

val schema_version : int
(** Version stamp carried by every [run_meta] line. Bumped on any
    incompatible change to the JSONL shape; currently 2. *)

type meta = {
  time : float;
  schema : int;  (** the engine writes {!schema_version} *)
  log : string;
  failures : string;
  policy : string;
  dims : Dims.t;
  wrap : bool;
  jobs : int;
  seed : int option;  (** scenario seed, when the caller knows it *)
  parent : string option;  (** fingerprint of the journal this run resumes from, if any *)
  repair_time : float;
  checkpointed : bool;  (** whether a checkpointing spec was active *)
}

type entry =
  | Run_meta of meta  (** First entry of every run: everything the auditor needs up front. *)
  | Job_arrived of { job : int; time : float; size : int; run_time : float }
      (** [run_time] is the job's true work requirement (node-seconds
          per node), not its user estimate. *)
  | Job_started of { job : int; time : float; box : Box.t; restart : bool }
      (** [job] is the job id from the log (not the engine index). *)
  | Job_killed of { job : int; time : float; node : int; lost_node_seconds : float }
      (** [node] is the failed node that killed the job. *)
  | Job_finished of { job : int; time : float }
  | Job_migrated of { job : int; time : float; from_box : Box.t; to_box : Box.t }
  | Node_failed of { time : float; node : int; victim : int option }
      (** [victim] is the id of the job killed by this event, if any. *)
  | Node_repaired of { time : float; node : int }
  | Run_summary of { time : float; report : Metrics.report }
      (** Last entry of every run: the engine's own totals, which an
          auditor cross-checks against its independent recomputation. *)

val time : entry -> float
(** The simulated time the entry was recorded at. *)

val name : entry -> string
(** The wire name in the [ev] member: [run_meta], [job_start], ... *)

val entry_to_json : ?run:string -> entry -> string
(** One compact JSON object, no trailing newline. When [run] is given,
    a leading ["run"] member tags the line with that run id, so the
    interleaved stream of a parallel sweep can be demultiplexed line
    by line. See the "Observability" section of README.md for the
    schema. *)

val entry_of_json : string -> (string option * entry, string) result
(** Parse one trace line back into its optional ["run"] tag and entry.
    Total: malformed JSON, unknown events, missing or ill-typed
    members, and integer members that are not integral or exceed
    2{^53} in magnitude are [Error]s. Floats are read as printed
    (12 significant digits), so [entry_of_json (entry_to_json e)]
    returns [e] exactly when its floats survive that rendering. *)

val is_summary_line : string -> bool
(** Whether a line printed by {!entry_to_json} is a [run_summary]
    trailer — the cue trace writers flush on, so that trace durability
    stays ahead of the journal append that follows each run. *)

type t

val create : ?sink:entry Bgl_obs.Sink.t -> unit -> t
(** Defaults to a buffered sink, which retains every entry in memory —
    fine for figure-scale runs, unbounded for long sweeps. Pass a
    JSONL sink (or {!jsonl}) to stream entries to disk in constant
    memory instead, or a tee to do both. *)

val jsonl : out_channel -> t
(** A recorder streaming one JSON line per entry to the channel (the
    schema is {!entry_to_json}'s). The caller owns the channel. *)

val record : t -> entry -> unit
(** Append an entry (engine-facing). *)

val entries : t -> entry list
(** All entries in recording order — for recorders over a buffered
    sink; streaming recorders return [] (see {!is_buffered}). *)

val length : t -> int
(** Entries recorded so far (maintained by every sink kind). *)

val is_buffered : t -> bool
(** Whether {!entries} reflects the full run. *)

val flush : t -> unit
(** Flush a streaming recorder's underlying channel. *)

val pp_entry : Format.formatter -> entry -> unit
