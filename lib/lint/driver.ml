type outcome = {
  files_scanned : int;
  findings : Finding.t list;
  waived : int;
  stale : Waivers.entry list;
}

let clean outcome = outcome.findings = [] && outcome.stale = []

(* Load the compiled units behind the given paths and run R1-R11 over
   them. R7 waiver entries double as taint barriers; the ones the
   analysis consumed that way are exempt from staleness, as are R11
   entries when no executable was scanned. *)
let run ?(waivers = []) paths =
  Result.map
    (fun units ->
      let findings, consumed = Typed_rules.check ~waivers units in
      let scanned =
        List.sort_uniq String.compare (List.map (fun (u : Cmt_loader.unit_info) -> u.source) units)
      in
      let { Waivers.kept; waived; stale } =
        Waivers.apply ~preconsumed:(fun e -> List.memq e consumed) waivers findings ~scanned
      in
      { files_scanned = List.length scanned; findings = kept; waived; stale })
    (Cmt_loader.units paths)

let pp_human ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) t.findings;
  List.iter (fun e -> Format.fprintf ppf "%a@." Waivers.pp_stale e) t.stale

let to_jsonl t =
  List.map Finding.to_json t.findings @ List.map Waivers.stale_to_json t.stale

let pp_summary ppf t =
  Format.fprintf ppf "bgl-lint: %d file%s, %d finding%s (%d waived)%s"
    t.files_scanned
    (if t.files_scanned = 1 then "" else "s")
    (List.length t.findings)
    (if List.length t.findings = 1 then "" else "s")
    t.waived
    (match t.stale with
    | [] -> ""
    | l -> Printf.sprintf ", %d stale waiver%s" (List.length l) (if List.length l = 1 then "" else "s"))
