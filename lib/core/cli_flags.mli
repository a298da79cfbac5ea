(** Flag plumbing shared by every CLI (bgl-sim, bgl-sweep, bgl-trace,
    bgl-lint), so [--quiet], [--format], [--dims], [--differential-check]
    and [--audit] mean one thing everywhere instead of being re-declared
    per tool.

    Error paths raise {!Bgl_resilience.Error.Cli} rather than printing
    and exiting here: the tools all evaluate inside
    {!Bgl_resilience.Error.run}, which turns the exception into the
    documented one-line report and exit code. *)

type format = Human | Jsonl

val format_conv : format Cmdliner.Arg.conv

val n_jobs_conv : int Cmdliner.Arg.conv
(** A job count, refused unless {!Scenario.check_n_jobs} accepts it. *)

val load_conv : float Cmdliner.Arg.conv
(** A load-scale coefficient, refused unless {!Scenario.check_load}
    accepts it. *)

val failures_conv : int Cmdliner.Arg.conv
(** A failure count on the paper's scale, refused unless
    {!Scenario.check_failures} accepts it. All three refusals are
    parse errors (exit 124), before any run starts. *)

val format : format Cmdliner.Term.t
(** [--format human|jsonl], default human. *)

val quiet : bool Cmdliner.Term.t
(** [--quiet] / [-q]. *)

val dims : string option Cmdliner.Term.t
(** [--dims XxYxZ] — machine size, unparsed (validated by
    {!parse_dims} inside the tool's [run], so a bad value exits 2
    rather than with cmdliner's 124). *)

val parse_dims : default:Bgl_torus.Dims.t -> string option -> Bgl_torus.Dims.t
(** Parse a [--dims] value ([4x4x8] or [64,32,32] style); [None]
    yields [default]. Malformed input raises [Error.Cli (Usage _)]
    (exit 2). *)

val differential : int option Cmdliner.Term.t
(** [--differential-check[=N]]: [Some 1] bare, [Some n] with a value,
    [None] absent. Validated by {!set_differential}. *)

val set_differential : int option -> (unit, Bgl_resilience.Error.t) result
(** Install the flag's value through {!Bgl_partition.Finder.set_differential};
    a sample below 1 is a [Usage] error (exit 2). *)

val audit : bool Cmdliner.Term.t
(** [--audit]: certify the [--trace-out] file after the run. *)

val check_audit :
  audit:bool -> trace_out:string option -> (unit, Bgl_resilience.Error.t) result
(** Before the run: [--audit] without [--trace-out] is a [Usage] error
    (exit 2). *)

val audit_trace :
  audit:bool -> trace_out:string option -> (int, Bgl_resilience.Error.t) result
(** After the run, once the trace channel is closed: under [--audit],
    audit the trace file, print the certificate to stderr and return
    exit code 1 on any violation, else 0. Without [--audit], [Ok 0]. *)

val set_quiet : bool -> unit
(** Install the flag's value process-wide so library-level note paths
    ({!notef}) need no threading. *)

val notef : ('a, Format.formatter, unit) Stdlib.format -> 'a
(** Informational note to stderr; dropped entirely under [--quiet]. *)

val usage_failf : ('a, unit, string, 'b) format4 -> 'a
(** Flag-validation failure: raises [Error.Cli (Usage _)] (exit 2). *)

val open_out_or_fail : string -> out_channel
(** [open_out], with failure mapped to [Error.Cli (Io _)] (exit 74) —
    used to fail on unwritable output paths before a long run. *)

val write_registry : path:string -> Bgl_obs.Registry.t -> unit
(** Write a metrics snapshot; the [.csv] extension selects CSV,
    anything else Prometheus text (the convention every tool's
    [--metrics-out] documents). *)

val arm_failpoints : string list -> (unit, Bgl_resilience.Error.t) result
(** Parse and arm every [--fail SPEC] ({!Bgl_resilience.Failpoint.of_string}),
    stopping at the first bad spec with a [Usage] error (exit 2). *)
