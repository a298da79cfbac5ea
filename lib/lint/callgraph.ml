(* Cross-module call graph over typed units.

   One [def] per (sub)module-level value binding, carrying everything
   the interprocedural rules need: the value paths it references
   (edges, after [resolve]), the exception constructors it raises
   directly, the closures it hands to spawn sites with their captured
   variables, its [Texp_setfield] writes, and its catch-all exception
   handlers. Typedtree paths are resolved through opens; each unit's
   module aliases are expanded here ([Cmt_loader.expand_aliases]), so
   edge resolution is a name lookup, not a scoping problem.

   Every path is named by the unit's [name] function. dune compiles
   each executable module as [Dune__exe__M], so two directories' [Main]
   would collide: an executable unit's modules are keyed by its source
   directory instead ([bench.Main], [perfbench.Main]), which is also
   how its references to sibling modules resolve. *)

module SSet = Set.Make (String)

type site = { path : string; ref_loc : Location.t }

type capture = { var : string; ty : string; cap_loc : Location.t }
(* a free variable of a spawned closure, with the head of its type *)

type spawn = { callee : string; captures : capture list; spawn_loc : Location.t }

type setfield = { record_ty : string; field : string; set_loc : Location.t }

type tri = {
  reraises : bool;  (* the catch-all handler mentions raise *)
  body_refs : string list;  (* paths referenced by the guarded expression *)
  body_raises : string list;  (* constructors raised directly by it *)
  try_loc : Location.t;
}

type def = {
  name : string;  (* fully qualified, e.g. "Bgl_sim.Engine.start_job" *)
  ctx : string;  (* enclosing module path, for edge resolution *)
  file : string;
  def_loc : Location.t;
  mutable refs : site list;
  mutable raises : string list;
  mutable spawns : spawn list;
  mutable setfields : setfield list;
  mutable tries : tri list;
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (* def names, deterministic *)
  mutable_records : SSet.t;  (* record types with a mutable field *)
  locked_records : SSet.t;  (* ...that also carry their own Mutex.t *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers over compiler types *)

let type_head ~name ty =
  let rec go ty =
    match Types.get_desc ty with
    | Tconstr (p, _, _) -> name p
    | Tpoly (ty, _) -> go ty
    | _ -> ""
  in
  go ty

(* [suffix] matches [name] exactly or on a dotted-component boundary,
   mirroring the waiver-file path matching. *)
let suffix_matches ~suffix name =
  name = suffix
  ||
  let s = "." ^ suffix in
  let ls = String.length s and ln = String.length name in
  ls <= ln && String.sub name (ln - ls) ls = s

let is_raise n = n = "raise" || n = "raise_notrace" || n = "Printexc.raise_with_backtrace"

let raised_constructor ~name (f : Typedtree.expression) args =
  match f.exp_desc with
  | Texp_ident (p, _, _) when is_raise (name p) -> (
      match args with
      | (_, Some { Typedtree.exp_desc = Texp_construct (_, cstr, _); _ }) :: _ ->
          Some cstr.Types.cstr_name
      | _ -> None)
  | _ -> None

let rec catch_all_value (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> catch_all_value p
  | Tpat_or (a, b, _) -> catch_all_value a || catch_all_value b
  | _ -> false

let rec exn_catch_all (p : Typedtree.computation Typedtree.general_pattern) =
  match p.pat_desc with
  | Tpat_exception p -> catch_all_value p
  | Tpat_or (a, b, _) -> exn_catch_all a || exn_catch_all b
  | _ -> false

(* Paths referenced / constructors raised directly under [expr0]. Used
   for the guarded body of a [try], independently of the enclosing
   def's accumulation. *)
let shallow_refs ~name expr0 =
  let refs = ref [] in
  let raises = ref [] in
  let expr iter (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> refs := name p :: !refs
    | Texp_letop { let_; ands; _ } ->
        List.iter
          (fun (op : Typedtree.binding_op) -> refs := name op.bop_op_path :: !refs)
          (let_ :: ands)
    | Texp_apply (f, args) -> (
        match raised_constructor ~name f args with
        | Some c -> raises := c :: !raises
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr iter e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it expr0;
  (List.rev !refs, List.rev !raises)

let expr_reraises ~name expr0 =
  let found = ref false in
  let expr iter (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> if is_raise (name p) then found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr iter e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it expr0;
  !found

(* Free variables of a literal closure: idents used minus idents bound
   anywhere inside it. Exact, because [Ident.unique_name] carries the
   binder's stamp. *)
let free_vars ~name (fn : Typedtree.expression) =
  let used : (string, capture) Hashtbl.t = Hashtbl.create 16 in
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let bind id = Hashtbl.replace bound (Ident.unique_name id) () in
  let expr iter (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        let key = Ident.unique_name id in
        if not (Hashtbl.mem used key) then
          Hashtbl.replace used key
            { var = Ident.name id; ty = type_head ~name e.exp_type; cap_loc = e.exp_loc }
    | Texp_function { param; _ } -> bind param
    | Texp_for (id, _, _, _, _, _) -> bind id
    | Texp_letop { param; _ } -> bind param
    | _ -> ());
    Tast_iterator.default_iterator.expr iter e
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      pat =
        (fun iter p ->
          List.iter bind (Typedtree.pat_bound_idents p);
          Tast_iterator.default_iterator.pat iter p);
    }
  in
  it.expr it fn;
  Hashtbl.fold (fun key cap acc -> if Hashtbl.mem bound key then acc else cap :: acc) used []
  |> List.sort (fun a b ->
         match String.compare a.var b.var with
         | 0 -> Int.compare a.cap_loc.loc_start.pos_cnum b.cap_loc.loc_start.pos_cnum
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Per-def collection *)

(* Where a walk stands: the enclosing module path, the source file,
   and the unit's path namer (aliases expanded, mangling folded,
   executable modules keyed by directory). *)
type scope = { ctx : string; file : string; name : Path.t -> string }

let exe_prefix = "Dune.exe."

let unit_scope (u : Cmt_loader.unit_info) =
  let dir = Filename.dirname u.source in
  let rekey n =
    if String.starts_with ~prefix:exe_prefix n then
      let k = String.length exe_prefix in
      dir ^ "." ^ String.sub n k (String.length n - k)
    else n
  in
  {
    ctx = rekey (Cmt_loader.normalize_dotted u.modname);
    file = u.source;
    name = (fun p -> rekey (Cmt_loader.normalize_path (Cmt_loader.expand_aliases u.aliases p)));
  }

let collect_into ~spawn_sites ~name def expr0 =
  let add_ref path ref_loc = def.refs <- { path; ref_loc } :: def.refs in
  let expr iter (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> add_ref (name p) e.exp_loc
    | Texp_letop { let_; ands; _ } ->
        (* [let*] calls its operator, which is no [Texp_ident] *)
        List.iter
          (fun (op : Typedtree.binding_op) -> add_ref (name op.bop_op_path) op.bop_loc)
          (let_ :: ands)
    | Texp_apply (f, args) -> (
        (match raised_constructor ~name f args with
        | Some c -> def.raises <- c :: def.raises
        | None -> ());
        match f.exp_desc with
        | Texp_ident (p, _, _) ->
            let callee = name p in
            if List.exists (fun s -> suffix_matches ~suffix:s callee) spawn_sites then begin
              let captures =
                List.concat_map
                  (fun (_, arg) ->
                    match arg with
                    | Some ({ Typedtree.exp_desc = Texp_function _; _ } as closure) ->
                        free_vars ~name closure
                    | Some _ | None -> [])
                  args
              in
              def.spawns <- { callee; captures; spawn_loc = e.exp_loc } :: def.spawns
            end
        | _ -> ())
    | Texp_setfield (record, _, label, _) ->
        def.setfields <-
          {
            record_ty = type_head ~name record.exp_type;
            field = label.Types.lbl_name;
            set_loc = e.exp_loc;
          }
          :: def.setfields
    | Texp_try (body, cases) ->
        let catchers = List.filter (fun c -> catch_all_value c.Typedtree.c_lhs) cases in
        if catchers <> [] then begin
          let reraises = List.exists (fun c -> expr_reraises ~name c.Typedtree.c_rhs) catchers in
          let body_refs, body_raises = shallow_refs ~name body in
          let try_loc = (List.hd catchers).Typedtree.c_lhs.pat_loc in
          def.tries <- { reraises; body_refs; body_raises; try_loc } :: def.tries
        end
    | Texp_match (scrutinee, cases, _) ->
        let catchers = List.filter (fun c -> exn_catch_all c.Typedtree.c_lhs) cases in
        if catchers <> [] then begin
          let reraises = List.exists (fun c -> expr_reraises ~name c.Typedtree.c_rhs) catchers in
          let body_refs, body_raises = shallow_refs ~name scrutinee in
          let try_loc = (List.hd catchers).Typedtree.c_lhs.pat_loc in
          def.tries <- { reraises; body_refs; body_raises; try_loc } :: def.tries
        end
    | _ -> ());
    Tast_iterator.default_iterator.expr iter e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it expr0

(* ------------------------------------------------------------------ *)
(* Structure walk *)

type builder = {
  tbl : (string, def) Hashtbl.t;
  mutable rev_order : string list;
  mutable mut_records : SSet.t;
  mutable lock_records : SSet.t;
  spawn_sites : string list;
}

let new_def b sc ~name loc =
  let qualified = sc.ctx ^ "." ^ name in
  match Hashtbl.find_opt b.tbl qualified with
  | Some d -> d
  | None ->
      let d =
        {
          name = qualified;
          ctx = sc.ctx;
          file = sc.file;
          def_loc = loc;
          refs = [];
          raises = [];
          spawns = [];
          setfields = [];
          tries = [];
        }
      in
      Hashtbl.add b.tbl qualified d;
      b.rev_order <- qualified :: b.rev_order;
      d

let note_type_decl b sc (decl : Typedtree.type_declaration) =
  match decl.typ_kind with
  | Ttype_record labels ->
      let mutable_field =
        List.exists (fun (l : Typedtree.label_declaration) -> l.ld_mutable = Mutable) labels
      in
      if mutable_field then begin
        let tyname = sc.ctx ^ "." ^ decl.typ_name.txt in
        b.mut_records <- SSet.add tyname b.mut_records;
        let has_lock =
          List.exists
            (fun (l : Typedtree.label_declaration) ->
              type_head ~name:sc.name l.ld_type.ctyp_type = "Mutex.t")
            labels
        in
        if has_lock then b.lock_records <- SSet.add tyname b.lock_records
      end
  | _ -> ()

let binding_name (vb : Typedtree.value_binding) =
  match Typedtree.pat_bound_idents vb.vb_pat with
  | [ id ] -> Some (Ident.name id)
  | _ -> None

let rec walk_structure b sc (str : Typedtree.structure) = List.iter (walk_item b sc) str.str_items

and walk_item b sc (item : Typedtree.structure_item) =
  let collect def e = collect_into ~spawn_sites:b.spawn_sites ~name:sc.name def e in
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let def =
            match binding_name vb with
            | Some name -> new_def b sc ~name vb.vb_pat.pat_loc
            | None -> new_def b sc ~name:"(init)" item.str_loc
          in
          collect def vb.vb_expr)
        vbs
  | Tstr_eval (e, _) -> collect (new_def b sc ~name:"(init)" item.str_loc) e
  | Tstr_type (_, decls) -> List.iter (note_type_decl b sc) decls
  | Tstr_module mb -> walk_module_binding b sc mb
  | Tstr_recmodule mbs -> List.iter (walk_module_binding b sc) mbs
  | Tstr_include incl -> walk_module_expr b sc incl.incl_mod
  | _ -> ()

and walk_module_binding b sc (mb : Typedtree.module_binding) =
  match mb.mb_name.txt with
  | Some name -> walk_module_expr b { sc with ctx = sc.ctx ^ "." ^ name } mb.mb_expr
  | None -> ()

and walk_module_expr b sc (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure b sc str
  | Tmod_constraint (me, _, _, _) -> walk_module_expr b sc me
  | Tmod_functor (_, me) -> walk_module_expr b sc me
  | _ -> ()

let build ~spawn_sites (units : Cmt_loader.unit_info list) =
  let b =
    {
      tbl = Hashtbl.create 256;
      rev_order = [];
      mut_records = SSet.empty;
      lock_records = SSet.empty;
      spawn_sites;
    }
  in
  let units =
    List.sort
      (fun (a : Cmt_loader.unit_info) (c : Cmt_loader.unit_info) ->
        match String.compare a.modname c.modname with
        | 0 -> String.compare a.source c.source
        | n -> n)
      units
  in
  List.iter (fun (u : Cmt_loader.unit_info) -> walk_structure b (unit_scope u) u.structure) units;
  List.iter (fun name -> (Hashtbl.find b.tbl name).refs <- List.rev (Hashtbl.find b.tbl name).refs)
    b.rev_order;
  {
    defs = b.tbl;
    order = List.rev b.rev_order;
    mutable_records = b.mut_records;
    locked_records = b.lock_records;
  }

(* ------------------------------------------------------------------ *)
(* Edge resolution *)

(* Candidate contexts for an unqualified or partially qualified
   reference, innermost enclosing module first. *)
let context_chain ctx =
  let rec go acc c =
    let acc = c :: acc in
    match String.rindex_opt c '.' with
    | None -> acc
    | Some i -> go acc (String.sub c 0 i)
  in
  List.rev (go [] ctx)

let resolve t ~ctx path =
  let candidates = List.map (fun c -> c ^ "." ^ path) (context_chain ctx) @ [ path ] in
  List.find_map (fun name -> Hashtbl.find_opt t.defs name) candidates

(* Resolved callees of a def, in reference order, deduplicated. *)
let callees t (d : def) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun s ->
      match resolve t ~ctx:d.ctx s.path with
      | Some callee when callee.name <> d.name && not (Hashtbl.mem seen callee.name) ->
          Hashtbl.replace seen callee.name ();
          Some callee
      | Some _ | None -> None)
    d.refs

let iter_defs t f = List.iter (fun name -> f (Hashtbl.find t.defs name)) t.order
