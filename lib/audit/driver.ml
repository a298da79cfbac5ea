type certificate = {
  files : string list;
  sections : int;
  complete : int;
  lines : int;
  dropped_tail : int;
  checks : int;
  findings : Finding.t list;
}

let pass c = c.findings = []

type obs = { checks_total : Bgl_obs.Registry.counter; violations_total : Bgl_obs.Registry.counter }

let make_obs () =
  let reg = Bgl_obs.Runtime.registry () in
  {
    checks_total =
      Bgl_obs.Registry.counter reg ~help:"audit checks executed" "bgl_audit_checks_total";
    violations_total =
      Bgl_obs.Registry.counter reg ~help:"audit violations found" "bgl_audit_violations_total";
  }

let audit ~files (t : Trace.t) =
  let obs = make_obs () in
  let span name f =
    if Bgl_obs.Span.enabled () then Bgl_obs.Span.time ~name f else f ()
  in
  let per_section =
    span "audit.check" (fun () -> List.map Check.section t.sections)
  in
  let stitch_findings, stitch_checks = span "audit.stitch" (fun () -> Check.stitch t.sections) in
  let checks = List.fold_left (fun acc (_, c) -> acc + c) stitch_checks per_section in
  let findings =
    t.findings @ List.concat_map fst per_section @ stitch_findings |> List.sort Finding.compare
  in
  Bgl_obs.Registry.add obs.checks_total (float_of_int checks);
  Bgl_obs.Registry.add obs.violations_total (float_of_int (List.length findings));
  {
    files;
    sections = List.length t.sections;
    complete = List.length (List.filter Trace.complete t.sections);
    lines = t.lines_total;
    dropped_tail = t.dropped_tail;
    checks;
    findings;
  }

let audit_files paths =
  let load () =
    if Bgl_obs.Span.enabled () then
      Bgl_obs.Span.time ~name:"audit.load" (fun () -> Trace.load_files paths)
    else Trace.load_files paths
  in
  Result.map (audit ~files:paths) (load ())

let certificate_json c =
  let open Bgl_obs.Jsonl in
  obj
    [
      ("kind", string "certificate");
      ("pass", bool (pass c));
      ("files", "[" ^ String.concat "," (List.map string c.files) ^ "]");
      ("runs", int c.sections);
      ("complete", int c.complete);
      ("lines", int c.lines);
      ("dropped_tail", int c.dropped_tail);
      ("checks", int c.checks);
      ("violations", int (List.length c.findings));
      ("schema", int Bgl_sim.Recorder.schema_version);
    ]

let to_jsonl c = List.map Finding.to_json c.findings @ [ certificate_json c ]

let pp ppf c =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) c.findings;
  Format.fprintf ppf "%s: %d run section%s (%d complete), %d line%s, %d checks, %d violation%s%s@."
    (if pass c then "PASS" else "FAIL")
    c.sections
    (if c.sections = 1 then "" else "s")
    c.complete c.lines
    (if c.lines = 1 then "" else "s")
    c.checks
    (List.length c.findings)
    (if List.length c.findings = 1 then "" else "s")
    (if c.dropped_tail > 0 then Printf.sprintf " (%d truncated tail line(s) dropped)" c.dropped_tail
     else "")
