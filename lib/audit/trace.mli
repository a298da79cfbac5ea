(** Trace sectioning: parsed JSONL lines → demultiplexed run sections.

    Parsing is not done here: every line goes through
    {!Bgl_sim.Recorder.entry_of_json}, the inverse of the printer the
    engine writes with, and sections hold {!Bgl_sim.Recorder.entry}
    values as they are. This module only demuxes the stream by run id
    (parallel sweeps share one writer and tag every line) and splits
    each run's stream into {!section}s at [run_meta] boundaries — so a
    stitched kill-then-resume audit sees the truncated first attempt
    and the resumed complete run as two sections of the same id. *)

type item = { file : string; lineno : int; len : int; entry : Bgl_sim.Recorder.entry }
(** One lifecycle line: where it came from, its byte length (the
    findings' end column), and the parsed entry. *)

type section = {
  run : string option;  (** the stream's run tag; [None] for untagged traces *)
  meta : Bgl_sim.Recorder.meta;
  meta_file : string;
  meta_line : int;
  events : item list;
      (** entries between header and trailer; never a [Run_meta] or
          [Run_summary] *)
  summary : (Bgl_sim.Metrics.report * float) option;
      (** report and time; absent iff the section was truncated (crash
          or new header) *)
  last_file : string;
  last_line : int;
}

val complete : section -> bool
(** Whether the section closed with a [run_summary]. *)

type t = {
  sections : section list;  (** in stream order of their closing line *)
  findings : Finding.t list;  (** A1 parse and A2 orphan findings *)
  lines_total : int;
  dropped_tail : int;
      (** truncated final lines dropped as crash tails, like the
          journal reader does — at most one per file *)
}

val of_lines : (string * string list) list -> t
(** [(filename, lines)] pairs, concatenated in order; blank lines are
    skipped. The filename only labels findings. *)

val load_files : string list -> (t, Bgl_resilience.Error.t) result
(** Read and section the files; [Error (Io _)] on unreadable paths. *)
