type rule = A1 | A2 | A3 | A4 | A5 | A6 | A7 | A8

let id = function
  | A1 -> "A1"
  | A2 -> "A2"
  | A3 -> "A3"
  | A4 -> "A4"
  | A5 -> "A5"
  | A6 -> "A6"
  | A7 -> "A7"
  | A8 -> "A8"

let name = function
  | A1 -> "malformed-line"
  | A2 -> "framing"
  | A3 -> "timestamp-regression"
  | A4 -> "invalid-box"
  | A5 -> "occupancy"
  | A6 -> "lifecycle"
  | A7 -> "conservation"
  | A8 -> "metrics-mismatch"


type t = {
  rule : rule;
  file : string;
  line : int;  (** 1-based line number in [file]; 0 for whole-trace findings *)
  end_col : int;  (** length of the offending line; the finding spans it *)
  run : string option;  (** run id of the section the finding belongs to *)
  message : string;
}

let make rule ~file ~line ?(end_col = 0) ?run message = { rule; file; line; end_col; run; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare (id a.rule) (id b.rule)

let pp ppf t =
  Format.fprintf ppf "%s:%d: [%s/error] %s: %s%s" t.file t.line (id t.rule) (name t.rule) t.message
    (match t.run with Some r -> Printf.sprintf " (run %s)" r | None -> "")

(* Same shape as Bgl_lint.Finding.to_json, so one findings consumer
   handles both tools; the extra "run" member is the trace-audit
   addition. *)
let to_json t =
  Bgl_obs.Jsonl.obj
    ([
       ("kind", Bgl_obs.Jsonl.string "finding");
       ("rule", Bgl_obs.Jsonl.string (id t.rule));
       ("name", Bgl_obs.Jsonl.string (name t.rule));
       ("severity", Bgl_obs.Jsonl.string "error");
       ("file", Bgl_obs.Jsonl.string t.file);
       ("line", Bgl_obs.Jsonl.int t.line);
       ("col", Bgl_obs.Jsonl.int 0);
       ("end_col", Bgl_obs.Jsonl.int t.end_col);
       ("msg", Bgl_obs.Jsonl.string t.message);
     ]
    @ match t.run with Some r -> [ ("run", Bgl_obs.Jsonl.string r) ] | None -> [])
