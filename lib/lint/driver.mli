(** The analysis driver: loads the compiler's [.cmt] output for the
    given paths, runs every rule (R1-R11) over it, applies the waivers
    and renders the outcome.

    Failures route through {!Bgl_resilience.Error}: unreadable inputs
    and paths with nothing compiled behind them are [Io] (exit 74),
    waiver files that do not parse are [Parse] (exit 65). Findings are
    data, not errors — the CLI maps a non-{!clean} outcome to exit 1. *)

type outcome = {
  files_scanned : int;
  findings : Finding.t list;  (** non-waived, in {!Finding.compare} order *)
  waived : int;
  stale : Waivers.entry list;
}

val clean : outcome -> bool
(** No findings and no stale waivers — the build may pass. *)

val run : ?waivers:Waivers.t -> string list -> (outcome, Bgl_resilience.Error.t) result
(** Lint the compiled units behind [paths]: a directory covers every
    [.cmt] under it, a [.ml] file the one unit compiled from it. From
    the source root the [_build/default] mirror of each path is read.
    [files_scanned] counts distinct source files. A path with no
    compiled unit is an [Io] error (build first); a corrupt or foreign
    [.cmt] is silently skipped (the analyzer is total over whatever
    [_build] contains). Only the scanned files' waivers can go stale.
    R7 waiver entries double as taint barriers and are exempt from
    staleness when consumed that way, and so are R11 entries in a run
    with no executable among its units (nothing is judged reached). *)

val pp_human : Format.formatter -> outcome -> unit
(** One ["file:line:col"] line per finding, then stale waivers. *)

val to_jsonl : outcome -> string list
(** One JSON object per finding / stale waiver, parseable by
    {!Bgl_obs.Jsonl.parse}. *)

val pp_summary : Format.formatter -> outcome -> unit
(** One-line scan summary for stderr. *)
