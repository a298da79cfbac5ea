type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11
type severity = Error | Warning

let id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"

let name = function
  | R1 -> "wall-clock"
  | R2 -> "stdlib-random"
  | R3 -> "unsynchronized-global"
  | R4 -> "swallowed-exception"
  | R5 -> "float-literal-equality"
  | R6 -> "stray-stdout"
  | R7 -> "determinism-taint"
  | R8 -> "cross-domain-escape"
  | R9 -> "exception-flow"
  | R10 -> "lifecycle-protocol"
  | R11 -> "unreached-export"

let severity = function
  | R1 | R2 | R3 | R4 | R7 | R8 | R9 | R10 | R11 -> Error
  | R5 | R6 -> Warning

let severity_label = function Error -> "error" | Warning -> "warning"

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; R10; R11 ]
let rule_of_id s = List.find_opt (fun r -> id r = s) all_rules

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  end_col : int;
  message : string;
  trail : string list;
      (* interprocedural evidence: the call path from the reported site
         to the offending primitive, outermost first. [] for the
         single-site rules. *)
}

let make ?(trail = []) rule ~file (loc : Location.t) message =
  let col (p : Lexing.position) = p.pos_cnum - p.pos_bol in
  {
    rule;
    file;
    line = loc.loc_start.pos_lnum;
    col = col loc.loc_start;
    end_col = col loc.loc_end;
    message;
    trail;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (id a.rule) (id b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let pp_trail ppf = function
  | [] -> ()
  | trail -> Format.fprintf ppf "@.    via %s" (String.concat " -> " trail)

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d-%d: [%s/%s] %s: %s%a" t.file t.line t.col t.end_col (id t.rule)
    (severity_label (severity t.rule))
    (name t.rule) t.message pp_trail t.trail

let to_json t =
  Bgl_obs.Jsonl.obj
    ([
       ("kind", Bgl_obs.Jsonl.string "finding");
       ("rule", Bgl_obs.Jsonl.string (id t.rule));
       ("name", Bgl_obs.Jsonl.string (name t.rule));
       ("severity", Bgl_obs.Jsonl.string (severity_label (severity t.rule)));
       ("file", Bgl_obs.Jsonl.string t.file);
       ("line", Bgl_obs.Jsonl.int t.line);
       ("col", Bgl_obs.Jsonl.int t.col);
       ("end_col", Bgl_obs.Jsonl.int t.end_col);
       ("msg", Bgl_obs.Jsonl.string t.message);
     ]
    @
    match t.trail with
    | [] -> []
    | trail ->
        [
          ( "trail",
            "[" ^ String.concat "," (List.map Bgl_obs.Jsonl.string trail) ^ "]" );
        ])
