(* Loading and naming for the linter.

   Every rule works on the compiler's own `.cmt` output, so it sees
   resolved paths and inferred types instead of surface syntax. This
   module hides the two impedance mismatches: dune's module-name
   mangling (`Bgl_sim__Engine`, `Bgl_sim__.Job.t`) and the fact that
   `.cmt` files live under `_build`, not next to their sources. *)

type unit_info = {
  modname : string;  (* normalized dotted module path, e.g. "Bgl_sim.Engine" *)
  source : string;  (* source path as recorded by the compiler *)
  structure : Typedtree.structure;
  aliases : (Ident.t * Path.t) list;  (* module alias binders -> targets *)
}

(* Dune mangles wrapped-library modules as `Lib__Module` and the
   library alias unit as `Lib__`; compiled paths may also thread
   through the alias (`Bgl_sim__.Job.t`). Splitting every
   module-looking component on `__` and dropping the empties folds all
   spellings onto one canonical `Lib.Module` form. Lowercase
   components (value names) pass through untouched so a value named
   `foo__bar` keeps its name. *)
let split_mangled comp =
  if comp = "" || not (comp.[0] >= 'A' && comp.[0] <= 'Z') then [ comp ]
  else begin
    let parts = ref [] in
    let buf = Buffer.create (String.length comp) in
    let n = String.length comp in
    let i = ref 0 in
    while !i < n do
      if !i + 1 < n && comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf;
        i := !i + 2
      end
      else begin
        Buffer.add_char buf comp.[!i];
        incr i
      end
    done;
    parts := Buffer.contents buf :: !parts;
    List.filter (fun s -> s <> "") (List.rev !parts)
  end

let normalize_dotted s =
  let comps = List.concat_map split_mangled (String.split_on_char '.' s) in
  let comps = match comps with "Stdlib" :: (_ :: _ as rest) -> rest | comps -> comps in
  String.concat "." comps

let normalize_path p = normalize_dotted (Path.name p)

(* Every module alias a unit binds ([module X = Y], [let module X = Y
   in ...]), as (binder, target) pairs. Binder stamps are unique per
   unit, so one table serves every scope of it. *)
let module_aliases (str : Typedtree.structure) =
  let aliases = ref [] in
  let note id (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
        aliases := (id, p) :: !aliases
    | _ -> ()
  in
  let expr iter (e : Typedtree.expression) =
    (match e.exp_desc with Texp_letmodule (Some id, _, _, me, _) -> note id me | _ -> ());
    Tast_iterator.default_iterator.expr iter e
  in
  let module_binding iter (mb : Typedtree.module_binding) =
    Option.iter (fun id -> note id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding iter mb
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding } in
  it.structure it str;
  !aliases

(* [p] with each alias binder it starts from replaced by the alias
   target, transitively: [module R = Random] makes [R.int] name
   [Random.int]. Typedtree paths are resolved through opens but not
   through the unit's own aliases, so every rule names paths through
   this. *)
let rec expand_aliases aliases (p : Path.t) : Path.t =
  match p with
  | Pident id -> (
      match List.find_opt (fun (binder, _) -> Ident.same binder id) aliases with
      | Some (_, target) -> expand_aliases aliases target
      | None -> p)
  | Pdot (q, s) -> Pdot (expand_aliases aliases q, s)
  | _ -> p

let make_unit ~modname ~source structure =
  { modname; source; structure; aliases = module_aliases structure }

(* Corrupt or alien `.cmt` files are skipped, not fatal: the analyzer
   must stay total over whatever `_build` happens to contain. So are
   the alias units dune generates (`dune__exe.ml-gen`,
   `bgl_sim__.ml-gen`): they hold module aliases, no code of ours. *)
let load path =
  match Cmt_format.read_cmt path with
  | { cmt_sourcefile = Some s; _ } when Filename.check_suffix s ".ml-gen" -> None
  | { cmt_annots = Implementation structure; cmt_modname; cmt_sourcefile; _ } ->
      let source =
        match cmt_sourcefile with
        | Some s -> s
        | None -> String.uncapitalize_ascii cmt_modname ^ ".ml"
      in
      Some (make_unit ~modname:(normalize_dotted cmt_modname) ~source structure)
  | _ -> None
  | exception Cmt_format.Error _
  | exception Cmi_format.Error _
  | exception Sys_error _
  | exception End_of_file
  | exception Failure _ ->
      None

(* `.cmt` discovery. This must descend into dune's dot-directories
   (`.bgl_sim.objs`), and when invoked from the source root (where no
   `.cmt` exists) it falls back to the mirror of each path under
   `_build/default`. Sorted at every level so unit order — and thus
   finding order — is machine-independent. *)
(* Dangling symlinks (and files racing with their deletion) make
   [Sys.is_directory] raise; a tree walk must shrug them off. *)
let is_dir path = match Sys.is_directory path with b -> b | exception Sys_error _ -> false

let rec collect_under acc path =
  Result.bind acc (fun acc ->
      match Sys.is_directory path with
      | true ->
          let entries = Sys.readdir path in
          Array.sort String.compare entries;
          Array.fold_left
            (fun acc entry ->
              let child = Filename.concat path entry in
              if is_dir child then
                if entry = ".git" || entry = "_opam" then acc else collect_under acc child
              else if Filename.check_suffix entry ".cmt" then Result.map (List.cons child) acc
              else acc)
            (Ok acc) entries
      | false ->
          if Filename.check_suffix path ".cmt" then Ok (path :: acc)
          else if Sys.file_exists path then Ok acc
          else Error (Bgl_resilience.Error.Io { path; detail = "no such file or directory" })
      | exception Sys_error detail -> Error (Bgl_resilience.Error.Io { path; detail }))

let collect_cmts path =
  match collect_under (Ok []) path with
  | Ok [] ->
      let mirrored = Filename.concat (Filename.concat "_build" "default") path in
      if Sys.file_exists mirrored then collect_under (Ok []) mirrored else Ok []
  | direct -> direct

let build_first path detail =
  Error (Bgl_resilience.Error.Io { path; detail = detail ^ " — build first (dune build)" })

(* A directory argument covers every unit compiled under it. A `.ml`
   argument names one source file and resolves to the unit the
   compiler recorded it as the source of, found among the `.cmt` files
   of its directory. Either way, a path with nothing compiled behind
   it is an error, not a silent pass. *)
let units paths =
  let one path =
    let is_source = Filename.check_suffix path ".ml" && Sys.file_exists path && not (is_dir path) in
    let dir = if is_source then Filename.dirname path else path in
    Result.bind (collect_cmts dir) (fun cmts ->
        let units = List.filter_map load cmts in
        if not is_source then
          if cmts = [] then build_first path "no .cmt files found" else Ok units
        else
          match
            List.filter
              (fun u -> u.source = path || String.ends_with ~suffix:("/" ^ u.source) path)
              units
          with
          | [] -> build_first path "no compiled unit for this file"
          | units -> Ok units)
  in
  let key u = (u.modname, u.source) in
  Result.map
    (fun per_path -> List.sort_uniq (fun a b -> compare (key a) (key b)) (List.concat per_path))
    (List.fold_left
       (fun acc path -> Result.bind acc (fun acc -> Result.map (fun us -> us :: acc) (one path)))
       (Ok []) paths)

(* ------------------------------------------------------------------ *)
(* In-process typechecking, for the rule fixtures in test/. Tests
   cannot ship `.cmt` files (they would bit-rot against the compiler
   version), so they feed source strings through the same front end
   the compiler uses and hand the resulting Typedtree to the
   analyzer. The load path is the standard library plus `+unix`
   (explicit, rather than relying on OCaml 5's auto-include of it and
   its alert); [deps] are earlier fixture units the source may refer
   to by their module names. *)

let tc_initialized = Atomic.make false

let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let typecheck_source ?(modname = "Fixture") ?(deps = []) ~path src =
  if not (Atomic.exchange tc_initialized true) then begin
    Compmisc.init_path ();
    Load_path.add_dir (Misc.expand_directory Config.standard_library "+unix")
  end;
  (* Fixtures deliberately contain rule violations; the warnings they
     also trip are noise. *)
  let saved = !Location.formatter_for_warnings in
  Location.formatter_for_warnings := null_formatter;
  let finish result =
    Location.formatter_for_warnings := saved;
    result
  in
  Env.set_unit_name modname;
  (* Earlier fixture units stand in for the project's other modules. *)
  let env =
    List.fold_left
      (fun env u ->
        Env.add_module (Ident.create_persistent u.modname) Mp_present
          (Mty_signature u.structure.str_type) env)
      (Compmisc.initial_env ()) deps
  in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | exception exn ->
      finish
        (Error
           (Bgl_resilience.Error.Parse { name = path; detail = "parse: " ^ Printexc.to_string exn }))
  | parsetree -> (
      match Typemod.type_structure env parsetree with
      | structure, _, _, _, _ -> finish (Ok (make_unit ~modname ~source:path structure))
      | exception exn ->
          let detail =
            match Location.error_of_exn exn with
            | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
            | Some `Already_displayed | None -> Printexc.to_string exn
          in
          finish (Error (Bgl_resilience.Error.Parse { name = path; detail })))
