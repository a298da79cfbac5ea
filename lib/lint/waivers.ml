type entry = { rule : Finding.rule; path : string; reason : string; line : int }
type t = entry list

let normalize p =
  let p = if String.starts_with ~prefix:"./" p then String.sub p 2 (String.length p - 2) else p in
  String.map (fun c -> if c = '\\' then '/' else c) p

(* [entry.path] matches [file] exactly or as a trailing path suffix on
   a component boundary, so waivers written repo-relative keep working
   when the linter runs over a copied tree (the dune @lint rule). *)
let matches entry ~file =
  let file = normalize file in
  entry.path = file
  ||
  let suffix = "/" ^ entry.path in
  let ls = String.length suffix and lf = String.length file in
  ls <= lf && String.sub file (lf - ls) ls = suffix

let of_string ~name src =
  let errors = ref [] in
  let entries = ref [] in
  let err line fmt =
    Printf.ksprintf (fun m -> errors := Printf.sprintf "%s:%d: %s" name line m :: !errors) fmt
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim raw in
      if s <> "" && not (String.starts_with ~prefix:"#" s) then
        match String.index_opt s ' ' with
        | None -> err line "expected '<rule-id> <path> <reason>', got %S" s
        | Some sp -> (
            let rule_id = String.sub s 0 sp in
            let rest = String.trim (String.sub s (sp + 1) (String.length s - sp - 1)) in
            match Finding.rule_of_id rule_id with
            | None ->
                err line "unknown rule id %S (known: %s)" rule_id
                  (String.concat ", " (List.map Finding.id Finding.all_rules))
            | Some rule -> (
                match String.index_opt rest ' ' with
                | None ->
                    err line "waiver for %s %s needs a reason — say why the finding is fine"
                      rule_id rest
                | Some sp2 ->
                    let path = normalize (String.sub rest 0 sp2) in
                    let reason =
                      String.trim (String.sub rest (sp2 + 1) (String.length rest - sp2 - 1))
                    in
                    entries := { rule; path; reason; line } :: !entries)))
    (String.split_on_char '\n' src);
  match !errors with
  | [] -> Ok (List.rev !entries)
  | es -> Error (String.concat "; " (List.rev es))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | src ->
      Result.map_error
        (fun detail -> Bgl_resilience.Error.Parse { name = path; detail })
        (of_string ~name:path src)
  | exception Sys_error detail -> Error (Bgl_resilience.Error.Io { path; detail })

type applied = {
  kept : Finding.t list;
  waived : int;
  stale : entry list;
}

(* [preconsumed] marks entries the rules already used internally (an
   R7 waiver acting as a taint barrier matches no finding, but it is
   anything but stale). *)
let apply ?(preconsumed = fun (_ : entry) -> false) t findings ~scanned =
  let scanned = List.map normalize scanned in
  let used = Array.make (List.length t) false in
  let kept =
    List.filter
      (fun (f : Finding.t) ->
        let covered = ref false in
        List.iteri
          (fun i e ->
            if e.rule = f.rule && matches e ~file:f.file then begin
              used.(i) <- true;
              covered := true
            end)
          t;
        not !covered)
      findings
  in
  let stale =
    List.filteri
      (fun i e ->
        (not used.(i))
        && (not (preconsumed e))
        && List.exists (fun file -> matches e ~file) scanned)
      t
  in
  { kept; waived = List.length findings - List.length kept; stale }

let pp_stale ppf e =
  Format.fprintf ppf "stale waiver (line %d): %s %s (%s) matched no finding — delete it" e.line
    (Finding.id e.rule) e.path e.reason

let stale_to_json e =
  Bgl_obs.Jsonl.obj
    [
      ("kind", Bgl_obs.Jsonl.string "stale-waiver");
      ("rule", Bgl_obs.Jsonl.string (Finding.id e.rule));
      ("path", Bgl_obs.Jsonl.string e.path);
      ("reason", Bgl_obs.Jsonl.string e.reason);
      ("line", Bgl_obs.Jsonl.int e.line);
    ]
