(* The rule catalogue, R1-R11, over typechecked units.

   R1-R6 are per-unit checks on the Typedtree. They match resolved
   paths, not spellings: an ident counts only when its path starts at a
   compilation unit (Stdlib, Unix, ...) once the unit's own module
   aliases are expanded, so [module R = Random], [open Unix] and a local
   [let print_endline] all resolve to what they really name. R3 reads
   mutability from each label's description, so a record type declared
   in another unit counts as much as a local one.

   R7-R11 are interprocedural, over a Callgraph.t.

   R7 determinism taint — no nondeterministic primitive (wall clock,
   Random, environment) may be reachable through calls from a
   deterministic root (engine step, finders, sweep cells). An R7
   waiver on a file acts as a taint *barrier*: reachability stops
   there, and the consumed entry is reported back so the driver does
   not call it stale.

   R8 cross-domain escape — a closure handed to a spawn site must not
   capture mutable state (ref, Hashtbl, Buffer, mutable record) that
   lacks Atomic/Mutex/DLS discipline. Classification is by type, not
   by name, so aliases resolve for free; a mutable record that carries
   its own Mutex.t field is treated as self-guarded. Arrays are
   exempt: the pool's disjoint-index writes are the sanctioned idiom.

   R9 exception flow — least-fixpoint raisable set of the protected
   control exceptions per function; a catch-all handler whose guarded
   expression can raise one of them (and that does not re-raise) is
   flagged. Unlike R4 this only fires when a protected exception is
   actually reachable.

   R10 lifecycle protocol — every write to a protocol-controlled field
   (Job.t's [state]) must happen inside its blessed transition
   function.

   R11 unreached export — every top-level def of a unit outside lib/
   and test/ (the executables of bin/, bench/, examples/, perfbench/)
   is a root; a lib/ def that no root reaches through calls is
   flagged. Tests are not roots: a value only a test calls is dead
   code with a test. A value its own module does not export is the
   compiler's business (warning 32), so R11 reads no interface. *)

module SSet = Callgraph.SSet

type config = {
  roots : string list;  (* def names or def-name prefixes *)
  sinks : string list;  (* exact nondeterministic primitives *)
  sink_prefixes : string list;  (* e.g. "Random." *)
  spawn_sites : string list;  (* callee suffixes that cross domains/threads *)
  protected_exns : string list;  (* constructor names a catch-all must not eat *)
  protocols : (string * string * string) list;
      (* record-type suffix, field, blessed-writer suffix *)
}

let default =
  {
    roots =
      [
        "Bgl_sim.Engine.run";
        "Bgl_core.Scenario.run";
        "Bgl_core.Sweep.run";
        "Bgl_partition.Finder";
      ];
    sinks =
      [
        "Unix.gettimeofday";
        "Unix.time";
        "Monotonic_clock.now";
        "Unix.localtime";
        "Unix.gmtime";
        "Unix.getenv";
        "Unix.environment";
        "Sys.time";
        "Sys.getenv";
        "Sys.getenv_opt";
      ];
    sink_prefixes = [ "Random." ];
    spawn_sites =
      [
        "Domain.spawn";
        "Thread.create";
        "Pool.map_supervised";
        "Pool.run_batch";
      ];
    protected_exns = [ "Budget_exceeded"; "Injected"; "Divergence" ];
    protocols = [ ("Job.t", "state", "Job.transition") ];
  }

(* ------------------------------------------------------------------ *)
(* R1-R6 *)

(* R1: ambient time sources, Bechamel's CLOCK_MONOTONIC read among
   them (Bgl_obs.Clock wraps it). The allowlist mechanism is the
   waiver file, not this list — every hit is reported. *)
let wall_clock_reads = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Monotonic_clock.now" ]

(* R6: writers that bypass Bgl_obs sinks / caller-supplied
   formatters. Only checked under lib/ — CLIs and tests own their
   stdout. *)
let stray_writers =
  [
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
    "prerr_char";
    "prerr_bytes";
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
  ]

(* R3: constructors whose result is shared mutable state when bound at
   the top of a module... *)
let mutable_makers =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Array.make";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
  ]

(* ...unless the binding is one of the sanctioned wrappers. A
   [Mutex.create] binding is itself fine: it exists to guard its
   neighbours. *)
let safe_makers = [ "Atomic.make"; "Mutex.create"; "Domain.DLS.new_key" ]

(* [path] lies under a directory named [dir], at the root or below. *)
let under dir path =
  String.starts_with ~prefix:(dir ^ "/") path
  ||
  let needle = "/" ^ dir ^ "/" in
  let n = String.length needle and len = String.length path in
  let rec scan i = i + n <= len && (String.sub path i n = needle || scan (i + 1)) in
  scan 0

let in_lib = under "lib"

(* The normalized name of [p] when it starts at a compilation unit,
   after expanding the unit's module aliases; [None] for anything bound
   in the unit itself. *)
let global_name aliases p =
  let rec global (p : Path.t) =
    match p with Pident id -> Ident.persistent id | Pdot (q, _) -> global q | _ -> false
  in
  let p = Cmt_loader.expand_aliases aliases p in
  if global p then Some (Cmt_loader.normalize_path p) else None

(* Unlike R9, a named handler ([with e -> h e]) is not a catch-all
   here: it visibly takes the exception somewhere. *)
let rec catch_all (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_alias (p, _, _) -> catch_all p
  | Tpat_or (a, b, _) -> catch_all a || catch_all b
  | _ -> false

let rec exn_catch_all (p : Typedtree.computation Typedtree.general_pattern) =
  match p.pat_desc with
  | Tpat_exception p -> catch_all p
  | Tpat_or (a, b, _) -> exn_catch_all a || exn_catch_all b
  | _ -> false

let rec float_literal name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant (Const_float _) -> true
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some e) ])
    when List.mem (name p) [ Some "~-."; Some "~+." ] ->
      float_literal name e
  | _ -> false

let swallow_msg what =
  Printf.sprintf
    "catch-all exception %s would swallow typed control exceptions (Budget_exceeded, \
     Divergence, Injected); match the exceptions you mean to handle"
    what

let expr_rules ~lib ~name add (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match name p with
      | None -> ()
      | Some p ->
          if List.mem p wall_clock_reads then
            add Finding.R1 e.exp_loc
              (Printf.sprintf
                 "ambient wall-clock read %s breaks replayability; take the time source as an \
                  argument (or waive the site)"
                 p);
          if String.starts_with ~prefix:"Random." p then
            add Finding.R2 e.exp_loc
              (Printf.sprintf
                 "%s bypasses the seeded Bgl_stats.Rng; draw from an Rng.t split from the \
                  scenario seed"
                 p);
          if lib && List.mem p stray_writers then
            add Finding.R6 e.exp_loc
              (Printf.sprintf
                 "%s writes to a global channel from library code; route output through Bgl_obs \
                  sinks or a Format.formatter passed by the caller"
                 p))
  | Texp_try (_, cases) ->
      List.iter
        (fun (c : _ Typedtree.case) ->
          if catch_all c.c_lhs then add Finding.R4 c.c_lhs.pat_loc (swallow_msg "handler"))
        cases
  | Texp_match (_, cases, _) ->
      List.iter
        (fun (c : _ Typedtree.case) ->
          if exn_catch_all c.c_lhs then add Finding.R4 c.c_lhs.pat_loc (swallow_msg "case"))
        cases
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some a); (_, Some b) ]) -> (
      match name p with
      | Some (("=" | "<>") as op) when float_literal name a || float_literal name b ->
          add Finding.R5 e.exp_loc
            (Printf.sprintf
               "(%s) against a float literal is brittle under rounding; compare with an \
                inequality or an explicit tolerance"
               op)
      | _ -> ())
  | _ -> ()

(* R3: the top-level (and submodule-level) value bindings. A binding
   is guarded when a [Mutex.create] binding sits within two structure
   items of it, or anywhere in the structure under the name
   [<binding>_mutex] / [<binding>_lock]. *)
let rec structure_rule ~name add (items : Typedtree.structure_item list) =
  let head (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> name p
    | _ -> None
  in
  let mutexes (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.filter
          (fun (vb : Typedtree.value_binding) -> head vb.vb_expr = Some "Mutex.create")
          vbs
    | _ -> []
  in
  let arr = Array.of_list items in
  let n = Array.length arr in
  let mutex_at i = i >= 0 && i < n && mutexes arr.(i) <> [] in
  let mutex_names =
    List.concat_map (fun it -> List.filter_map Callgraph.binding_name (mutexes it)) items
  in
  let classify (e : Typedtree.expression) =
    match head e, e.exp_desc with
    | Some h, _ when List.mem h safe_makers -> None
    | Some h, _ when List.mem h mutable_makers -> Some h
    | _, Texp_record { fields; _ } ->
        Array.find_map
          (fun ((l : Types.label_description), _) ->
            if l.lbl_mut = Mutable then Some ("record literal with mutable field " ^ l.lbl_name)
            else None)
          fields
    | _ -> None
  in
  Array.iteri
    (fun i (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match Callgraph.binding_name vb with
              | None -> ()
              | Some bname -> (
                  let guarded =
                    List.exists mutex_at [ i - 2; i - 1; i + 1; i + 2 ]
                    || List.mem (bname ^ "_mutex") mutex_names
                    || List.mem (bname ^ "_lock") mutex_names
                  in
                  match if guarded then None else classify vb.vb_expr with
                  | Some what ->
                      add Finding.R3 vb.vb_pat.pat_loc
                        (Printf.sprintf
                           "top-level mutable state %s (%s) is shared across domains; wrap it in \
                            Atomic or Domain.DLS, or guard it with an adjacent Mutex"
                           bname what)
                  | None -> ()))
            vbs
      | Tstr_module mb -> module_expr_rule ~name add mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter
            (fun (mb : Typedtree.module_binding) -> module_expr_rule ~name add mb.mb_expr)
            mbs
      | _ -> ())
    arr

and module_expr_rule ~name add (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> structure_rule ~name add str.str_items
  | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) -> module_expr_rule ~name add me
  | _ -> ()

let unit_rules (u : Cmt_loader.unit_info) findings =
  let add rule loc message =
    findings := Finding.make rule ~file:u.source loc message :: !findings
  in
  let name p = global_name u.aliases p in
  let lib = in_lib u.source in
  let expr iter (e : Typedtree.expression) =
    expr_rules ~lib ~name add e;
    Tast_iterator.default_iterator.expr iter e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.structure;
  structure_rule ~name add u.structure.str_items

(* ------------------------------------------------------------------ *)
(* R7 *)

let r7 cfg ~waivers graph findings consumed =
  let is_sink p =
    List.mem p cfg.sinks
    || List.exists (fun prefix -> String.starts_with ~prefix p) cfg.sink_prefixes
  in
  let barriers_for file =
    List.filter
      (fun (e : Waivers.entry) -> e.rule = Finding.R7 && Waivers.matches e ~file)
      waivers
  in
  let is_root (d : Callgraph.def) =
    List.exists (fun r -> d.name = r || String.starts_with ~prefix:(r ^ ".") d.name) cfg.roots
  in
  let roots = ref [] in
  Callgraph.iter_defs graph (fun d -> if is_root d then roots := d :: !roots);
  (* With no root among the units (a partial run such as one file),
     no barrier can be reached, so none can be judged stale. *)
  if !roots = [] then
    consumed := List.filter (fun (e : Waivers.entry) -> e.rule = Finding.R7) waivers;
  List.iter
    (fun (root : Callgraph.def) ->
      let visited = Hashtbl.create 64 in
      let reported = Hashtbl.create 8 in
      let pending = Queue.create () in
      Queue.add (root, [ root.Callgraph.name ]) pending;
      Hashtbl.replace visited root.name ();
      while not (Queue.is_empty pending) do
        let (d : Callgraph.def), rev_trail = Queue.pop pending in
        let barriers = if d == root then [] else barriers_for d.file in
        if barriers <> [] then
          List.iter
            (fun e -> if not (List.memq e !consumed) then consumed := e :: !consumed)
            barriers
        else begin
          List.iter
            (fun (s : Callgraph.site) ->
              if is_sink s.path && not (Hashtbl.mem reported s.path) then begin
                Hashtbl.replace reported s.path ();
                findings :=
                  Finding.make Finding.R7
                    ~trail:(List.rev (s.path :: rev_trail))
                    ~file:root.file root.def_loc
                    (Printf.sprintf
                       "nondeterministic primitive %s (at %s:%d) is reachable from deterministic \
                        root %s; thread the value in as data, or waive the intermediate file to \
                        declare the barrier"
                       s.path d.file s.ref_loc.loc_start.pos_lnum root.name)
                  :: !findings
              end)
            d.refs;
          List.iter
            (fun (callee : Callgraph.def) ->
              if not (Hashtbl.mem visited callee.name) then begin
                Hashtbl.replace visited callee.name ();
                Queue.add (callee, callee.name :: rev_trail) pending
              end)
            (Callgraph.callees graph d)
        end
      done)
    (List.rev !roots)

(* ------------------------------------------------------------------ *)
(* R8 *)

let safe_heads =
  [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t"; "Semaphore.Binary.t";
    "Domain.DLS.key" ]

let builtin_mutable = [ "ref"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t"; "bytes" ]

(* A type head referenced from inside its own unit is unqualified
   ("job", not "Fixture.job"), so record lookup resolves through the
   def's context chain exactly like value references do. *)
let mutable_kind (graph : Callgraph.t) ~ctx ty =
  if ty = "" || List.mem ty safe_heads then None
  else if List.mem ty builtin_mutable then Some ty
  else
    let candidates = List.map (fun c -> c ^ "." ^ ty) (Callgraph.context_chain ctx) @ [ ty ] in
    let mem set = List.exists (fun c -> SSet.mem c set) candidates in
    if mem graph.mutable_records && not (mem graph.locked_records) then
      Some (Printf.sprintf "mutable record %s" ty)
    else None

let r8 graph findings =
  Callgraph.iter_defs graph (fun (d : Callgraph.def) ->
      List.iter
        (fun (sp : Callgraph.spawn) ->
          List.iter
            (fun (c : Callgraph.capture) ->
              match mutable_kind graph ~ctx:d.ctx c.ty with
              | None -> ()
              | Some kind ->
                  findings :=
                    Finding.make Finding.R8 ~trail:[ d.name ] ~file:d.file c.cap_loc
                      (Printf.sprintf
                         "closure passed to %s captures %s `%s` with no Atomic/Mutex/DLS \
                          discipline; copy the data in, guard it, or keep it domain-local"
                         sp.callee kind c.var)
                    :: !findings)
            sp.captures)
        d.spawns)

(* ------------------------------------------------------------------ *)
(* R9 *)

let r9 cfg graph findings =
  let protected_of l = SSet.of_list (List.filter (fun c -> List.mem c cfg.protected_exns) l) in
  (* callee names per def, computed once *)
  let edges = Hashtbl.create 256 in
  Callgraph.iter_defs graph (fun d ->
      Hashtbl.replace edges d.name
        (List.map (fun (c : Callgraph.def) -> c.name) (Callgraph.callees graph d)));
  let raisable = Hashtbl.create 256 in
  Callgraph.iter_defs graph (fun d -> Hashtbl.replace raisable d.name (protected_of d.raises));
  let changed = ref true in
  while !changed do
    changed := false;
    Callgraph.iter_defs graph (fun d ->
        let cur = Hashtbl.find raisable d.name in
        let next =
          List.fold_left
            (fun acc callee -> SSet.union acc (Hashtbl.find raisable callee))
            cur (Hashtbl.find edges d.name)
        in
        if not (SSet.equal next cur) then begin
          Hashtbl.replace raisable d.name next;
          changed := true
        end)
  done;
  Callgraph.iter_defs graph (fun (d : Callgraph.def) ->
      List.iter
        (fun (t : Callgraph.tri) ->
          if not t.reraises then begin
            let from_body =
              List.fold_left
                (fun acc p ->
                  match Callgraph.resolve graph ~ctx:d.ctx p with
                  | Some callee -> SSet.union acc (Hashtbl.find raisable callee.name)
                  | None -> acc)
                (protected_of t.body_raises) t.body_refs
            in
            if not (SSet.is_empty from_body) then
              findings :=
                Finding.make Finding.R9 ~trail:[ d.name ] ~file:d.file t.try_loc
                  (Printf.sprintf
                     "catch-all handler can swallow %s raised by the guarded expression; match \
                      the exceptions you mean to handle, or re-raise"
                     (String.concat ", " (SSet.elements from_body)))
                :: !findings
          end)
        d.tries)

(* ------------------------------------------------------------------ *)
(* R10 *)

let r10 cfg graph findings =
  Callgraph.iter_defs graph (fun (d : Callgraph.def) ->
      List.iter
        (fun (s : Callgraph.setfield) ->
          List.iter
            (fun (ty_suffix, field, blessed) ->
              if
                s.field = field
                && Callgraph.suffix_matches ~suffix:ty_suffix s.record_ty
                && not (Callgraph.suffix_matches ~suffix:blessed d.name)
              then
                findings :=
                  Finding.make Finding.R10 ~trail:[ d.name ] ~file:d.file s.set_loc
                    (Printf.sprintf
                       "%s.%s is mutated outside %s; every lifecycle edge must go through the \
                        blessed transition function"
                       s.record_ty s.field blessed)
                  :: !findings)
            cfg.protocols)
        d.setfields)

(* ------------------------------------------------------------------ *)
(* R11 *)

let r11 ~waivers graph findings consumed =
  let lib (d : Callgraph.def) = in_lib d.file in
  let init (d : Callgraph.def) = String.ends_with ~suffix:".(init)" d.name in
  let exe_roots = ref [] and lib_inits = ref [] in
  Callgraph.iter_defs graph (fun d ->
      if lib d then (if init d then lib_inits := d :: !lib_inits)
      else if not (under "test" d.file) then exe_roots := d :: !exe_roots);
  (* Without an executable among the units (a partial run such as one
     library file) nothing is reached, so no R11 waiver can be judged
     stale either. *)
  if !exe_roots = [] then
    consumed := !consumed @ List.filter (fun (e : Waivers.entry) -> e.rule = Finding.R11) waivers
  else begin
    (* A library unit's top-level effects run whenever an executable
       links it, so they reach what they call. *)
    let visited = Hashtbl.create 256 in
    let pending = Queue.create () in
    let visit (d : Callgraph.def) =
      if not (Hashtbl.mem visited d.name) then begin
        Hashtbl.replace visited d.name ();
        Queue.add d pending
      end
    in
    List.iter visit (List.rev_append !exe_roots !lib_inits);
    while not (Queue.is_empty pending) do
      List.iter visit (Callgraph.callees graph (Queue.pop pending))
    done;
    Callgraph.iter_defs graph (fun (d : Callgraph.def) ->
        if lib d && not (init d || Hashtbl.mem visited d.name) then
          findings :=
            Finding.make Finding.R11 ~trail:[ d.name ] ~file:d.file d.def_loc
              (Printf.sprintf
                 "%s is reached from no executable (bin/, bench/, examples/, perfbench/), only \
                  from tests or not at all; delete it, or waive the file with the reason it \
                  must stay"
                 d.name)
            :: !findings)
  end

(* ------------------------------------------------------------------ *)

let check ?(config = default) ~waivers units =
  let findings = ref [] in
  List.iter (fun u -> unit_rules u findings) units;
  let graph = Callgraph.build ~spawn_sites:config.spawn_sites units in
  let consumed = ref [] in
  r7 config ~waivers graph findings consumed;
  r8 graph findings;
  r9 config graph findings;
  r10 config graph findings;
  r11 ~waivers graph findings consumed;
  (List.sort_uniq Finding.compare !findings, List.rev !consumed)
