(** Certificate assembly: load → check → verdict.

    A certificate is the machine-checkable result of auditing one or
    more trace files as a single stitched stream: every run section
    individually verified ({!Check.section}), the cross-section seam
    rules applied ({!Check.stitch}), and the verdict reduced to
    pass/fail plus the violation findings. The obs counters
    [bgl_audit_checks_total] / [bgl_audit_violations_total] and the
    [audit.*] span group record every audit against the ambient
    {!Bgl_obs.Runtime} registry. *)

type certificate = {
  files : string list;
  sections : int;  (** run sections seen across all files *)
  complete : int;  (** sections closed by a run_summary *)
  lines : int;
  dropped_tail : int;  (** truncated final lines dropped as crash tails *)
  checks : int;
  findings : Finding.t list;  (** sorted; empty iff the audit passes *)
}

val pass : certificate -> bool

val audit : files:string list -> Trace.t -> certificate
(** Pure core: audit an already-loaded trace. [files] only labels the
    certificate. *)

val audit_files : string list -> (certificate, Bgl_resilience.Error.t) result
(** Load the files (in the order given — stitch order matters for
    resumed runs) and audit them. [Error] only on I/O failure;
    unparseable content becomes findings, not errors. *)

val certificate_json : certificate -> string
(** One [{"kind":"certificate",...}] JSON line. *)

val to_jsonl : certificate -> string list
(** One finding line per violation (lint shape), then the certificate
    line. *)

val pp : Format.formatter -> certificate -> unit
