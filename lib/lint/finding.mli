(** Lint findings: rule ids, severities and source spans.

    The rule catalogue (see DESIGN §11 for the incident each rule
    guards against):

    - R1 [wall-clock] — ambient time reads ([Unix.gettimeofday],
      [Unix.time], [Sys.time], [Monotonic_clock.now]) make runs
      non-replayable; [Bgl_obs.Clock] is the one waived read.
    - R2 [stdlib-random] — any [Random.*]; simulation code must draw
      from [Bgl_stats.Rng] so seeds split deterministically.
    - R3 [unsynchronized-global] — top-level mutable state ([ref],
      [Hashtbl.create], [Buffer.create], mutable-record literals)
      neither wrapped in [Atomic] / [Domain.DLS] nor guarded by an
      adjacent [Mutex]: a data race once sweeps run on domains.
    - R4 [swallowed-exception] — catch-all [with _ ->] handlers (and
      [| exception _ ->] cases) that would eat typed control
      exceptions such as [Budget_exceeded] or [Divergence].
    - R5 [float-literal-equality] — [=] / [<>] against a float
      literal; bit-exactness claims make these silently brittle.
    - R6 [stray-stdout] — direct [print_*] / [prerr_*] /
      [Printf.printf] in [lib/]; output must go through [Bgl_obs]
      sinks or a [Format.formatter] passed in by the caller.

    All eleven rules run over the compiler's [.cmt] output. The last
    five are interprocedural, computed over the cross-module call
    graph:

    - R7 [determinism-taint] — a nondeterministic primitive (wall
      clock, [Random], environment) is reachable through calls from a
      deterministic root; reported at the root with the call path.
    - R8 [cross-domain-escape] — a closure passed to a spawn site
      captures mutable state with no Atomic/Mutex/DLS discipline,
      classified by type rather than by name.
    - R9 [exception-flow] — a catch-all handler guards an expression
      that can transitively raise a typed control exception
      ([Budget_exceeded], [Injected], [Divergence]).
    - R10 [lifecycle-protocol] — a protocol-controlled field
      ([Job.t]'s [state]) is written outside its blessed transition
      function.
    - R11 [unreached-export] — a [lib/] value that no executable
      (a unit outside [lib/] and [test/]: [bin/], [bench/],
      [examples/], [perfbench/]) reaches through calls; tests do not
      count as callers. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11
type severity = Error | Warning

val id : rule -> string
(** ["R1"] .. ["R11"]. *)

val name : rule -> string
(** Short kebab-case rule name, e.g. ["wall-clock"]. *)

val severity : rule -> severity
val severity_label : severity -> string

val all_rules : rule list

val rule_of_id : string -> rule option
(** Inverse of {!id}; [None] for unknown ids (waiver validation). *)

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  end_col : int;
  message : string;
  trail : string list;
      (** interprocedural evidence: the call path justifying the
          finding, outermost first; [[]] for single-site rules *)
}

val make : ?trail:string list -> rule -> file:string -> Location.t -> string -> t
(** Build a finding from a source location; columns are 0-based. *)

val compare : t -> t -> int
(** Order by file, line, column, rule id, message — the stable report
    order. *)

val pp : Format.formatter -> t -> unit
(** ["file:line:col-col: [R3/error] unsynchronized-global: ..."]. *)

val to_json : t -> string
(** One compact JSONL object (kind ["finding"]). *)
