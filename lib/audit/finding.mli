(** Audit violations, in the lint findings shape.

    Every checker failure becomes one finding anchored to the trace
    line that exposed it. The JSONL encoding mirrors
    {!Bgl_lint.Finding.to_json} (kind/rule/name/severity/file/line/
    col/end_col/msg) so downstream findings consumers handle both
    tools; audit findings additionally carry the run id. *)

type rule =
  | A1  (** malformed-line: unparseable JSON, unknown event, missing field *)
  | A2  (** framing: missing run_meta/run_summary, orphan lines, seam mismatch *)
  | A3  (** timestamp-regression: non-monotone times within a run *)
  | A4  (** invalid-box: out of bounds, non-canonical, too small for the job *)
  | A5  (** occupancy: overlap, start on a down node, phantom vacate *)
  | A6  (** lifecycle: illegal job state transition *)
  | A7  (** conservation: job counts disagree with the run summary *)
  | A8  (** metrics-mismatch: recomputed metrics disagree with the summary *)

val id : rule -> string
val name : rule -> string

type t = {
  rule : rule;
  file : string;
  line : int;  (** 1-based line number in [file]; 0 for whole-trace findings *)
  end_col : int;  (** length of the offending line; the finding spans it *)
  run : string option;  (** run id of the section the finding belongs to *)
  message : string;
}

val make : rule -> file:string -> line:int -> ?end_col:int -> ?run:string -> string -> t
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_json : t -> string
