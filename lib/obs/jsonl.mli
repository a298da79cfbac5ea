(** Minimal JSON helpers for the streaming trace.

    Emission side: tiny combinators producing compact one-line JSON
    without an AST (the trace hot path formats straight into strings).
    Consumption side: {!parse} into a small {!value} AST — the sweep
    journal reads its records back through it. *)

val escape : string -> string
(** JSON string-escape the contents (no surrounding quotes). *)

val string : string -> string
(** A quoted, escaped JSON string. *)

val float : float -> string
(** Compact float literal; non-finite values become [null] (JSON has
    no NaN/infinity). *)

val int : int -> string
val bool : bool -> string

val obj : (string * string) list -> string
(** [obj [("a", int 1)]] is [{"a":1}]. Values must already be JSON. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

val parse : string -> (value, string) result
(** Parse exactly one JSON value (trailing whitespace allowed). Never
    raises: malformed input is an [Error] with an offset. Numbers are
    parsed as [float]; integers are exact up to 2{^53}. *)

val member : string -> value -> value option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_float : value -> float option

val to_int : value -> int option
(** The one integer rule every decoder shares: [Some n] only for a
    [Number] that is integral with [|n| <= 2{^53}] (the range a float
    holds exactly); fractions, larger magnitudes and non-numbers are
    [None]. *)

val to_string_opt : value -> string option
