(* Tests for the bgl-lint static analyzer: each rule R1-R6 fires on a
   known-bad snippet and stays silent on the fixed form; the waiver
   file round-trips, requires reasons, and reports stale entries; the
   JSONL report parses; and (qcheck) the analyzer never raises on
   arbitrary parse-able source. *)

open Bgl_lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Rule ids produced by linting [src] as the file [path] (default: a
   library implementation, so lib-only rules are live). *)
let ids_of ?(path = "lib/probe/probe.ml") src =
  match Driver.lint_source ~path src with
  | Ok findings -> List.map (fun (f : Finding.t) -> Finding.id f.rule) findings
  | Error e -> Alcotest.failf "lint_source failed: %s" (Bgl_resilience.Error.to_string e)

let fires ?path rule src = List.mem rule (ids_of ?path src)

let check_fires rule src = check_bool (rule ^ " fires") true (fires rule src)
let check_silent rule src = check_bool (rule ^ " silent") false (fires rule src)

(* ------------------------------------------------------------------ *)
(* R1 wall-clock *)

let test_r1 () =
  check_fires "R1" "let t0 = Unix.gettimeofday ()";
  check_fires "R1" "let t0 = Sys.time ()";
  check_fires "R1" "let t0 = Unix.time ()";
  (* The fixed form: the time source comes in as an argument. *)
  check_silent "R1" "let elapsed clock = clock () -. 1.";
  check_silent "R1" "let t0 = Unix.getpid ()";
  (* R1 is not lib-only: CLIs and tests are scanned too. *)
  check_bool "R1 fires in bin" true (fires ~path:"bin/probe.ml" "R1" "let t = Sys.time ()")

(* ------------------------------------------------------------------ *)
(* R2 stdlib-random *)

let test_r2 () =
  check_fires "R2" "let d = Random.int 6";
  check_fires "R2" "let s = Random.State.make [| 1 |]";
  check_fires "R2" "let () = Random.self_init ()";
  (* The fixed form, and idents that merely end in "random". *)
  check_silent "R2" "let d rng = Bgl_stats.Rng.int rng 6";
  check_silent "R2" "let p = Placement.random ~seed:1";
  check_silent "R2" "let r = Random_fit"

(* ------------------------------------------------------------------ *)
(* R3 unsynchronized-global *)

let test_r3 () =
  check_fires "R3" "let cache = Hashtbl.create 8";
  check_fires "R3" "let state = ref 0";
  check_fires "R3" "let buf = Buffer.create 256";
  check_fires "R3" "let q : int Queue.t = Queue.create ()";
  (* Nested modules are still program-global state. *)
  check_fires "R3" "module M = struct let q = Queue.create () end";
  (* Mutable-record literal (type declared in the same file). *)
  check_fires "R3" "type cell = { mutable n : int }\nlet shared = { n = 0 }";
  (* Sanctioned wrappers. *)
  check_silent "R3" "let cache = Atomic.make []";
  check_silent "R3" "let key = Domain.DLS.new_key (fun () -> Hashtbl.create 8)";
  check_silent "R3" "let lock = Mutex.create ()";
  (* Guarded: a Mutex within two structure items... *)
  check_silent "R3" "let tbl = Hashtbl.create 8\nlet lock = Mutex.create ()";
  (* ...or one named <binding>_mutex / <binding>_lock anywhere. *)
  check_silent "R3"
    "let tbl = Hashtbl.create 8\nlet a = 1\nlet b = 2\nlet c = 3\nlet tbl_mutex = Mutex.create ()";
  (* An unrelated, non-adjacent mutex guards nothing. *)
  check_fires "R3"
    "let tbl = Hashtbl.create 8\nlet a = 1\nlet b = 2\nlet c = 3\nlet other_lock = Mutex.create ()";
  (* Function-local mutable state is fine. *)
  check_silent "R3" "let f () = let x = ref 0 in incr x; !x";
  (* Immutable record literal is fine. *)
  check_silent "R3" "type p = { x : int }\nlet origin = { x = 0 }"

(* ------------------------------------------------------------------ *)
(* R4 swallowed-exception *)

let test_r4 () =
  check_fires "R4" "let f g = try g () with _ -> 0";
  check_fires "R4" "let f g = try g () with Not_found -> 1 | _ -> 0";
  check_fires "R4" "let f g = match g () with x -> x | exception _ -> 0";
  (* Specific handlers, and handlers that bind the exception, pass. *)
  check_silent "R4" "let f g = try g () with Not_found -> 0";
  check_silent "R4" "let f g h = try g () with e -> h e";
  check_silent "R4" "let f g = match g () with x -> x | exception Not_found -> 0"

(* ------------------------------------------------------------------ *)
(* R5 float-literal-equality *)

let test_r5 () =
  check_fires "R5" "let f x = x = 1.5";
  check_fires "R5" "let f x = x <> 0.";
  check_fires "R5" "let f x = 0.25 = x";
  (* Inequalities and integer literals pass. *)
  check_silent "R5" "let f x = x <= 0.";
  check_silent "R5" "let f x = x = 1";
  check_silent "R5" "let f x y = x = y"

(* ------------------------------------------------------------------ *)
(* R6 stray-stdout *)

let test_r6 () =
  check_fires "R6" "let () = print_endline \"done\"";
  check_fires "R6" "let f x = Printf.printf \"%d\" x";
  check_fires "R6" "let f x = Format.eprintf \"%d\" x";
  check_fires "R6" "let warn m = prerr_endline m";
  (* A formatter passed by the caller is the sanctioned route. *)
  check_silent "R6" "let pp ppf x = Format.fprintf ppf \"%d\" x";
  (* Only lib/ is held to it. *)
  check_bool "R6 silent in bin" false
    (fires ~path:"bin/probe.ml" "R6" "let () = print_endline \"done\"");
  check_bool "R6 silent in test" false
    (fires ~path:"test/probe.ml" "R6" "let () = print_endline \"done\"")

(* ------------------------------------------------------------------ *)
(* Findings carry usable spans *)

let test_spans () =
  match Driver.lint_source ~path:"lib/probe.ml" "let a = 1\nlet d = Random.int 6" with
  | Error e -> Alcotest.failf "unexpected error: %s" (Bgl_resilience.Error.to_string e)
  | Ok [ f ] ->
      check_int "line" 2 f.line;
      check_bool "cols ordered" true (f.col < f.end_col);
      Alcotest.(check string) "file" "lib/probe.ml" f.file;
      check_bool "jsonl parses" true (Bgl_obs.Jsonl.valid (Finding.to_json f))
  | Ok fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Waivers *)

let probe_path = "lib/probe/probe.ml"

let findings_of src =
  match Driver.lint_source ~path:probe_path src with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "lint_source failed: %s" (Bgl_resilience.Error.to_string e)

let parse_waivers src =
  match Waivers.of_string ~name:"test-waivers" src with
  | Ok w -> w
  | Error msg -> Alcotest.failf "waiver parse failed: %s" msg

let test_waiver_roundtrip () =
  let findings = findings_of "let d = Random.int 6\nlet t = Sys.time ()" in
  check_int "two findings" 2 (List.length findings);
  let w = parse_waivers "# comment\n\nR2 lib/probe/probe.ml synthetic test site\n" in
  let { Waivers.kept; waived; stale } = Waivers.apply w findings ~scanned:[ probe_path ] in
  check_int "R1 kept" 1 (List.length kept);
  check_int "R2 waived" 1 waived;
  check_int "no stale" 0 (List.length stale);
  (* Same waiver, but the file has no R2 finding left: stale. *)
  let clean = findings_of "let t = Sys.time ()" in
  let applied = Waivers.apply w clean ~scanned:[ probe_path ] in
  check_int "stale reported" 1 (List.length applied.stale);
  check_bool "stale jsonl parses" true
    (Bgl_obs.Jsonl.valid (Waivers.stale_to_json (List.hd applied.stale)));
  (* A waiver whose file was not scanned is ignored, not stale. *)
  let applied = Waivers.apply w clean ~scanned:[ "lib/other.ml" ] in
  check_int "unscanned not stale" 0 (List.length applied.stale)

let test_waiver_syntax () =
  check_bool "reason required" true
    (Result.is_error (Waivers.of_string ~name:"w" "R1 lib/x.ml"));
  check_bool "rule id validated" true
    (Result.is_error (Waivers.of_string ~name:"w" "R11 lib/x.ml some reason"));
  check_bool "typed rule ids accepted" true
    (Result.is_ok (Waivers.of_string ~name:"w" "R9 lib/x.ml some reason"));
  check_bool "comments and blanks ok" true
    (Result.is_ok (Waivers.of_string ~name:"w" "# only a comment\n\n"));
  let w = parse_waivers "R1 lib/obs/span.ml the default clock\n" in
  let e = List.hd w in
  check_bool "exact match" true (Waivers.matches e ~file:"lib/obs/span.ml");
  check_bool "suffix match on boundary" true
    (Waivers.matches e ~file:"_build/default/lib/obs/span.ml");
  check_bool "no mid-component match" false (Waivers.matches e ~file:"notlib/obs/span.ml");
  check_bool "dot-slash normalized" true (Waivers.matches e ~file:"./lib/obs/span.ml")

(* ------------------------------------------------------------------ *)
(* Driver over a real tree *)

let write_file dir name contents =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
  path

let test_driver_tree () =
  let dir = Filename.temp_dir "bgl_lint_test" "" in
  let lib = Filename.concat dir "lib" in
  Sys.mkdir lib 0o755;
  ignore (write_file lib "one.ml" "let d = Random.int 6\n");
  ignore (write_file lib "two.ml" "let ok = 1\n");
  ignore (write_file lib "notml.txt" "Random.int is only flagged in .ml files\n");
  match Driver.run [ dir ] with
  | Error e -> Alcotest.failf "driver failed: %s" (Bgl_resilience.Error.to_string e)
  | Ok outcome ->
      check_int "scanned both ml files" 2 outcome.files_scanned;
      check_int "one finding" 1 (List.length outcome.findings);
      check_bool "not clean" false (Driver.clean outcome);
      check_int "jsonl line per finding" 1 (List.length (Driver.to_jsonl outcome));
      List.iter
        (fun line -> check_bool "jsonl line parses" true (Bgl_obs.Jsonl.valid line))
        (Driver.to_jsonl outcome)

let test_driver_errors () =
  (match Driver.lint_source ~path:"lib/broken.ml" "let x =" with
  | Error (Bgl_resilience.Error.Parse _) -> ()
  | Error e -> Alcotest.failf "expected Parse, got %s" (Bgl_resilience.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected a parse error");
  match Driver.run [ "/nonexistent-bgl-lint-path" ] with
  | Error (Bgl_resilience.Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected Io, got %s" (Bgl_resilience.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected an io error"

(* ------------------------------------------------------------------ *)
(* Typed rules R7-R10. Fixtures are typechecked in-process by the same
   front end that produced the real `.cmt` files, then pushed through
   the callgraph + rule pipeline with a fixture-local config whose
   deterministic root is [Fixture.root] and whose lifecycle protocol
   covers the fixture's own [job] type. Only Stdlib modules appear in
   fixtures: the in-process typechecker sees the compiler's default
   load path, not the project's libraries. *)

let fixture_config =
  {
    Typed_rules.default with
    roots = [ "Fixture.root" ];
    protocols = [ ("job", "state", "transition") ];
  }

let typed_check ?(waivers = []) src =
  let unit_info =
    match Cmt_loader.typecheck_source ~path:"lib/fixture/fixture.ml" src with
    | Ok u -> u
    | Error e -> Alcotest.failf "typecheck failed: %s" (Bgl_resilience.Error.to_string e)
  in
  let graph = Callgraph.build ~spawn_sites:fixture_config.spawn_sites [ unit_info ] in
  Typed_rules.check ~config:fixture_config ~waivers graph

let typed_ids ?waivers src =
  List.map (fun (f : Finding.t) -> Finding.id f.rule) (fst (typed_check ?waivers src))

let check_typed_fires rule src = check_bool (rule ^ " fires") true (List.mem rule (typed_ids src))

let check_typed_silent rule src =
  check_bool (rule ^ " silent") false (List.mem rule (typed_ids src))

let test_r7 () =
  (* A sink reached through a call chain is reported at the root. *)
  check_typed_fires "R7" "let helper () = Sys.time ()\nlet root () = helper ()";
  check_typed_fires "R7" "let deep () = Random.int 6\nlet mid () = deep ()\nlet root () = mid ()";
  check_typed_fires "R7" "let root () = Sys.getenv \"HOME\"";
  (* The fixed form threads the clock in as data. *)
  check_typed_silent "R7" "let helper clock = clock ()\nlet root clock = helper clock";
  (* A sink in a function the root never calls is not the root's problem. *)
  check_typed_silent "R7" "let stray () = Sys.time ()\nlet root () = 1 + 1";
  (* The finding lands on the root and carries the full call path. *)
  match fst (typed_check "let helper () = Sys.time ()\nlet root () = helper ()") with
  | [ f ] ->
      check_int "reported at root line" 2 f.line;
      Alcotest.(check (list string))
        "call trail" [ "Fixture.root"; "Fixture.helper"; "Sys.time" ] f.trail
  | fs -> Alcotest.failf "expected exactly one R7 finding, got %d" (List.length fs)

let test_r7_barrier () =
  (* An R7 waiver on a file in the path is a taint barrier: the finding
     disappears and the entry is reported as consumed, not stale. *)
  let waivers = parse_waivers "R7 lib/fixture/fixture.ml fixture-declared barrier\n" in
  let findings, consumed =
    typed_check ~waivers "let helper () = Sys.time ()\nlet root () = helper ()"
  in
  check_int "barrier suppresses" 0 (List.length findings);
  check_int "barrier consumed" 1 (List.length consumed);
  (* ...but the root's own file is never a barrier for direct sinks. *)
  let findings, consumed = typed_check ~waivers "let root () = Sys.time ()" in
  check_int "direct sink still fires" 1 (List.length findings);
  check_int "nothing consumed" 0 (List.length consumed)

let test_r8 () =
  check_typed_fires "R8"
    "let run () =\n\
    \  let counter = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> incr counter) in\n\
    \  Domain.join d";
  check_typed_fires "R8" "let run tbl = Domain.spawn (fun () -> Hashtbl.add tbl 1 1)";
  check_typed_fires "R8"
    "type cell = { mutable n : int }\nlet run (c : cell) = Domain.spawn (fun () -> c.n <- 1)";
  (* Sanctioned discipline: Atomic, a record carrying its own Mutex,
     and the pool's disjoint-index array idiom. *)
  check_typed_silent "R8"
    "let run () =\n\
    \  let counter = Atomic.make 0 in\n\
    \  let d = Domain.spawn (fun () -> Atomic.incr counter) in\n\
    \  Domain.join d";
  check_typed_silent "R8"
    "type guarded = { lock : Mutex.t; mutable n : int }\n\
     let run (g : guarded) = Domain.spawn (fun () -> g.n <- 1)";
  check_typed_silent "R8" "let run (a : int array) = Domain.spawn (fun () -> a.(0) <- 1)";
  (* Capturing immutable data is the point of closures. *)
  check_typed_silent "R8" "let run xs = Domain.spawn (fun () -> List.length xs)";
  (* The domain pool is a spawn site too: a cell closure handed to
     [Pool.map_supervised] runs on worker domains. *)
  let pool_fixture counter bump =
    Printf.sprintf
      "module Pool = struct let map_supervised _ f xs = Array.map f xs end\n\
       let run pool =\n\
      \  let hits = %s in\n\
      \  Pool.map_supervised pool (fun x -> %s; x) [| 1; 2 |]"
      counter bump
  in
  check_typed_fires "R8" (pool_fixture "ref 0" "incr hits");
  check_typed_silent "R8" (pool_fixture "Atomic.make 0" "Atomic.incr hits")

let test_r9 () =
  (* The raisable set is interprocedural: the raise is two calls away. *)
  check_typed_fires "R9"
    "exception Budget_exceeded\n\
     let deep () = raise Budget_exceeded\n\
     let mid () = deep () + 1\n\
     let run () = try mid () with _ -> 0";
  (* [exception _] match arms are the same hazard. *)
  check_typed_fires "R9"
    "exception Injected\n\
     let deep () = raise Injected\n\
     let run () = match deep () with n -> n | exception _ -> 0";
  (* Re-raising catch-alls and specific handlers pass. *)
  check_typed_silent "R9"
    "exception Budget_exceeded\n\
     let deep () = raise Budget_exceeded\n\
     let run () = try deep () with e -> raise e";
  check_typed_silent "R9"
    "exception Budget_exceeded\n\
     let deep () = raise Budget_exceeded\n\
     let run () = try deep () with Budget_exceeded -> 0";
  (* Unlike syntactic R4, a catch-all over unprotected exceptions is
     not this rule's business. *)
  check_typed_silent "R9" "let harmless () = raise Not_found\nlet run () = try harmless () with _ -> 0"

let test_r10 () =
  (* Any [state <-] outside the blessed transition function fires. *)
  (match
     fst
       (typed_check
          "type job = { mutable state : int }\n\
           let transition j = j.state <- 1\n\
           let sneaky j = j.state <- 2")
   with
  | [ f ] ->
      Alcotest.(check string) "rule" "R10" (Finding.id f.rule);
      Alcotest.(check (list string)) "culprit def" [ "Fixture.sneaky" ] f.trail
  | fs -> Alcotest.failf "expected exactly one R10 finding, got %d" (List.length fs));
  (* The blessed writer alone is clean. *)
  check_typed_silent "R10"
    "type job = { mutable state : int }\nlet transition j = j.state <- 1";
  (* Type-keyed: an unrelated record with a [state] field is free. *)
  check_typed_silent "R10"
    "type rngst = { mutable state : int }\nlet bump (r : rngst) = r.state <- r.state + 1"

let test_modname_normalization () =
  let check_norm input expect =
    Alcotest.(check string) input expect (Cmt_loader.normalize_dotted input)
  in
  check_norm "Bgl_sim__Engine" "Bgl_sim.Engine";
  check_norm "Bgl_sim__.Job.t" "Bgl_sim.Job.t";
  check_norm "Stdlib.Random.int" "Random.int";
  check_norm "Stdlib" "Stdlib";
  (* Lowercase components are value names; their underscores stay. *)
  check_norm "M.foo__bar" "M.foo__bar"

let test_run_typed_errors () =
  match Driver.run_typed [ "/nonexistent-bgl-typed-path" ] with
  | Error (Bgl_resilience.Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected Io, got %s" (Bgl_resilience.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected an io error"

(* ------------------------------------------------------------------ *)
(* qcheck: the analyzer is total on parse-able source *)

(* A generator of small, syntactically valid implementations: every
   production parenthesizes its sub-expressions, so anything it emits
   parses. The ident pool deliberately includes the triggers of every
   rule. *)
let gen_source =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map string_of_int small_signed_int;
        oneofl [ "1.5"; "0."; "3.14"; "nan" ];
        oneofl
          [
            "x";
            "f";
            "acc";
            "Unix.gettimeofday";
            "Sys.time";
            "Random.int";
            "Hashtbl.create";
            "Buffer.create";
            "Atomic.make";
            "Mutex.create";
            "print_endline";
            "Printf.printf";
            "List.map";
          ];
      ]
  in
  let rec expr n =
    if n <= 0 then leaf
    else
      let sub = expr (n / 2) in
      oneof
        [
          leaf;
          map2 (Printf.sprintf "(%s) (%s)") sub sub;
          (let* op = oneofl [ "="; "<>"; "+"; "<="; "+." ] in
           map2 (fun a b -> Printf.sprintf "(%s) %s (%s)" a op b) sub sub);
          map3 (Printf.sprintf "if (%s) then (%s) else (%s)") sub sub sub;
          (let* handler = oneofl [ "_"; "Not_found"; "e" ] in
           map2 (fun a b -> Printf.sprintf "try (%s) with %s -> (%s)" a handler b) sub sub);
          (let* pat = oneofl [ "_"; "0"; "exception _"; "exception Exit" ] in
           map2 (fun a b -> Printf.sprintf "match (%s) with | %s -> (%s) | _ -> (%s)" a pat b b)
             sub sub);
          map2 (Printf.sprintf "let z = (%s) in (%s)") sub sub;
          map (Printf.sprintf "fun q -> (%s)") sub;
          map (Printf.sprintf "ref (%s)") sub;
          map2 (Printf.sprintf "((%s); (%s))") sub sub;
        ]
  in
  let item =
    let* e = expr 6 in
    oneofl
      [
        Printf.sprintf "let v = %s" e;
        Printf.sprintf "let g () = %s" e;
        Printf.sprintf "let () = ignore (%s)" e;
        Printf.sprintf "module Mz = struct let inner = %s end" e;
        "type tz = { mutable mf : int }";
      ]
  in
  let* items = list_size (int_range 1 6) item in
  let* path = oneofl [ "lib/gen/gen.ml"; "bin/gen.ml"; "test/gen.ml" ] in
  pair (return path) (return (String.concat "\n" items))

let prop_never_raises =
  QCheck.Test.make ~count:500 ~name:"analyzer total on generated source"
    (QCheck.make ~print:(fun (p, s) -> p ^ ":\n" ^ s) gen_source)
    (fun (path, src) ->
      match Driver.lint_source ~path src with
      | Ok _ -> true
      | Error (Bgl_resilience.Error.Parse _) ->
          QCheck.Test.fail_reportf "generator emitted unparseable source:\n%s" src
      | Error e ->
          QCheck.Test.fail_reportf "unexpected error %s on:\n%s"
            (Bgl_resilience.Error.to_string e) src
      | exception e ->
          QCheck.Test.fail_reportf "analyzer raised %s on:\n%s" (Printexc.to_string e) src)

let prop_waivers_total =
  QCheck.Test.make ~count:300 ~name:"waiver parser total"
    QCheck.(string_of_size (Gen.int_bound 200))
    (fun s ->
      match Waivers.of_string ~name:"fuzz" s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "Waivers.of_string raised %s on %S" (Printexc.to_string e) s)

(* The typed analyzer must be total over whatever `_build` contains.
   dune runs tests from `_build/default/test`, so the tree's real
   `.cmt` units are one directory up — but only walk `..` when it
   really is a dune build root, so running the binary from elsewhere
   doesn't crawl half the filesystem. Arbitrary subsets exercise the
   unresolved-edge paths a full build never hits. Loaded once. *)
let built_units =
  lazy
    (let root =
       if Sys.file_exists "_build/default" then Some "_build/default"
       else if Sys.file_exists "../lib/lint/.bgl_lint.objs" then Some ".."
       else None
     in
     match root with
     | None -> []
     | Some root -> (
         match Cmt_loader.collect_cmts [ root ] with
         | Ok cmts -> List.filter_map Cmt_loader.load cmts
         | Error _ -> []))

let prop_typed_total =
  QCheck.Test.make ~count:25 ~name:"typed analyzer total on built unit subsets"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      match Lazy.force built_units with
      | [] -> true (* no build tree in sight; vacuous *)
      | units -> (
          let units = List.filteri (fun i _ -> Hashtbl.hash (seed, i) land 3 <> 0) units in
          let graph =
            Callgraph.build ~spawn_sites:Typed_rules.default.spawn_sites units
          in
          match Typed_rules.check ~waivers:[] graph with
          | findings, _ ->
              List.for_all
                (fun (f : Finding.t) -> Bgl_obs.Jsonl.valid (Finding.to_json f))
                findings
          | exception e ->
              QCheck.Test.fail_reportf "typed analyzer raised %s on a %d-unit subset"
                (Printexc.to_string e) (List.length units)))

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [ prop_never_raises; prop_waivers_total; prop_typed_total ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bgl_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 wall-clock" `Quick test_r1;
          Alcotest.test_case "R2 stdlib-random" `Quick test_r2;
          Alcotest.test_case "R3 unsynchronized-global" `Quick test_r3;
          Alcotest.test_case "R4 swallowed-exception" `Quick test_r4;
          Alcotest.test_case "R5 float-literal-equality" `Quick test_r5;
          Alcotest.test_case "R6 stray-stdout" `Quick test_r6;
          Alcotest.test_case "finding spans" `Quick test_spans;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "R7 determinism taint" `Quick test_r7;
          Alcotest.test_case "R7 waiver barrier" `Quick test_r7_barrier;
          Alcotest.test_case "R8 cross-domain escape" `Quick test_r8;
          Alcotest.test_case "R9 exception flow" `Quick test_r9;
          Alcotest.test_case "R10 lifecycle protocol" `Quick test_r10;
          Alcotest.test_case "module-name normalization" `Quick test_modname_normalization;
          Alcotest.test_case "run_typed error mapping" `Quick test_run_typed_errors;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "round-trip and staleness" `Quick test_waiver_roundtrip;
          Alcotest.test_case "syntax and matching" `Quick test_waiver_syntax;
        ] );
      ( "driver",
        [
          Alcotest.test_case "directory tree" `Quick test_driver_tree;
          Alcotest.test_case "error mapping" `Quick test_driver_errors;
        ] );
      ("qcheck", qcheck_tests);
    ]
