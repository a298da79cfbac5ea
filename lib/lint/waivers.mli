(** The [.lint-waivers] file: one waiver per line,

    {v <rule-id> <path> <reason...> v}

    ([#] comments and blank lines allowed). A waiver silences every
    finding of that rule in that file — and a waiver that silences
    nothing is itself an error ({!applied.stale}), so the file can
    only shrink as code gets fixed. Reasons are mandatory: a waiver
    states {e why} the finding is fine, not just that it is. *)

type entry = { rule : Finding.rule; path : string; reason : string; line : int }
type t = entry list

val matches : entry -> file:string -> bool
(** Path equality modulo [./] prefixes, or a trailing-suffix match on
    a ["/"] boundary (waivers are written repo-relative; scans may run
    over a copied tree). *)

val of_string : name:string -> string -> (t, string) result
(** Parse waiver syntax; all malformed lines are reported at once.
    [name] labels errors. *)

val load : string -> (t, Bgl_resilience.Error.t) result
(** {!of_string} on a file; missing/unreadable is [Io], malformed is
    [Parse]. *)

type applied = {
  kept : Finding.t list;  (** findings no waiver covers — these fail the build *)
  waived : int;  (** findings silenced by a waiver *)
  stale : entry list;
      (** waivers whose path was scanned but which silenced nothing — also fail the build *)
}

val apply :
  ?preconsumed:(entry -> bool) -> t -> Finding.t list -> scanned:string list -> applied
(** Waivers whose path matches no scanned file are ignored (a partial
    run, e.g. [bgl-lint lib/obs], must not mark the rest of the file
    stale). [preconsumed] marks entries the analysis already used
    internally (an R7 entry acting as a taint barrier matches no
    finding but is not stale). *)

val pp_stale : Format.formatter -> entry -> unit
val stale_to_json : entry -> string
