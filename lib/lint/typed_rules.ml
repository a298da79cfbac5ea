(* The interprocedural rule families R7-R10, over a Callgraph.t.

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
   flagged. Unlike the syntactic R4 this only fires when a protected
   exception is actually reachable.

   R10 lifecycle protocol — every write to a protocol-controlled field
   (Job.t's [state]) must happen inside its blessed transition
   function. *)

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

let check ?(config = default) ~waivers graph =
  let findings = ref [] in
  let consumed = ref [] in
  r7 config ~waivers graph findings consumed;
  r8 graph findings;
  r9 config graph findings;
  r10 config graph findings;
  (List.sort_uniq Finding.compare !findings, List.rev !consumed)
