(** Standard Workload Format (SWF) interchange.

    The Parallel Workloads Archive logs the paper uses (NASA iPSC/860,
    SDSC SP, LLNL Cray T3D) are distributed in SWF: one job per line,
    18 whitespace-separated fields, [;] comment/header lines. This
    module reads the fields the simulator needs and can write logs
    back out, so real archive files can be dropped into the harness in
    place of the synthetic generators.

    Field usage (1-based SWF numbering): 1 job number, 2 submit time,
    4 run time, 5 allocated processors, 8 requested processors
    (fallback when 5 is -1), 9 requested time (estimate; falls back to
    run time when absent). Jobs with unknown (-1) run time or
    processor count are skipped and counted in the report; a line
    whose submit, run or requested time is NaN or infinite is
    malformed, and its line number is reported. *)

type parse_report = {
  parsed : int;
  skipped : int;  (** well-formed lines without usable run time/size *)
  malformed : int list;  (** 1-based line numbers that failed to parse *)
}

val of_string : name:string -> string -> (Job_log.t * parse_report, string) result
(** Parse SWF text. Fails only when no job at all can be recovered or a
    recovered job violates {!Job_log.make} validation. *)

val load : string -> (Job_log.t * parse_report, string) result
(** Read a file; the log is named after the file's basename. *)

val to_string : Job_log.t -> string
(** Render as SWF with a header comment; unknown fields are -1. *)

val save : Job_log.t -> string -> unit
