(* Tests for the bgl-lint static analyzer: each rule R1-R11 fires on a
   known-bad snippet and stays silent on the fixed form; the module
   aliases, opens and cross-unit records the old syntactic pass could
   not see now fire; module aliases and [let*] are call edges, and
   same-named executable modules stay apart; the waiver file
   round-trips, requires reasons, and reports stale entries; the
   driver resolves directories and single source files to compiled
   units; the JSONL report parses; and (qcheck) the analyzer never
   raises on generated well-typed source. *)

open Bgl_lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let json_valid s = Result.is_ok (Bgl_obs.Jsonl.parse s)

(* Fixtures are typechecked in-process by the same front end that
   produced the real `.cmt` files, then pushed through the full rule
   pipeline with a fixture-local config whose deterministic root is
   [Fixture.root] and whose lifecycle protocol covers the fixture's own
   [job] type. Fixtures see the standard library and Unix; a project
   module a fixture mentions is stubbed in the fixture itself. *)

let fixture_path = "lib/fixture/fixture.ml"

let fixture_config =
  {
    Typed_rules.default with
    roots = [ "Fixture.root" ];
    protocols = [ ("job", "state", "transition") ];
  }

let typecheck ?(path = fixture_path) ?modname ?deps src =
  match Cmt_loader.typecheck_source ?modname ?deps ~path src with
  | Ok u -> u
  | Error e -> Alcotest.failf "typecheck failed: %s" (Bgl_resilience.Error.to_string e)

let lint ?path ?deps ?(waivers = []) src =
  Typed_rules.check ~config:fixture_config ~waivers [ typecheck ?path ?deps src ]

let findings_of ?path src = fst (lint ?path src)

(* Rule ids produced by linting [src] as the file [path] (default: a
   library implementation, so lib-only rules are live). *)
let ids_of ?path ?deps src =
  List.map (fun (f : Finding.t) -> Finding.id f.rule) (fst (lint ?path ?deps src))

let fires ?path ?deps rule src = List.mem rule (ids_of ?path ?deps src)

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
  (* The fixed form, and idents that merely end in "random" (project
     modules are stubbed: fixtures see only the stdlib and Unix). *)
  check_silent "R2"
    "module Bgl_stats = struct module Rng = struct let int _ n = n end end\n\
     let d rng = Bgl_stats.Rng.int rng 6";
  check_silent "R2"
    "module Placement = struct let random ~seed = seed end\nlet p = Placement.random ~seed:1";
  check_silent "R2" "type policy = Random_fit\nlet r = Random_fit"

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
  check_silent "R3" "let tbl = Hashtbl.create 8\nlet a = 1\nlet lock = Mutex.create ()";
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
(* What the Parsetree pass could not see: each of these was silent
   there (it matched spellings within one file) and fires now that the
   rules match resolved paths and label descriptions. *)

let test_blind_spots () =
  (* A module alias hid Random from the spelling "Random.". *)
  check_fires "R2" "module R = Random\nlet d = R.int 6";
  (* An open hid Unix from the spelling "Unix.gettimeofday". *)
  check_fires "R1" "open Unix\nlet t = gettimeofday ()";
  (* A mutable record declared in another unit: the old R3 only knew
     the field names declared in the same file. *)
  let other =
    typecheck ~path:"lib/fixture/other.ml" ~modname:"Other" "type cell = { mutable n : int }"
  in
  check_bool "R3 fires on another unit's mutable record" true
    (fires ~deps:[ other ] "R3" "let shared = { Other.n = 0 }");
  (* The converse: a local binding that shadows a stdlib writer is not
     the stdlib writer. *)
  check_silent "R6" "let print_endline (_ : string) = ()\nlet () = print_endline \"done\""

(* ------------------------------------------------------------------ *)
(* Findings carry usable spans *)

let test_spans () =
  match findings_of ~path:"lib/probe.ml" "let a = 1\nlet d = Random.int 6" with
  | [ f ] ->
      check_int "line" 2 f.line;
      check_bool "cols ordered" true (f.col < f.end_col);
      Alcotest.(check string) "file" "lib/probe.ml" f.file;
      check_bool "jsonl parses" true (json_valid (Finding.to_json f))
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Waivers *)

let parse_waivers src =
  match Waivers.of_string ~name:"test-waivers" src with
  | Ok w -> w
  | Error msg -> Alcotest.failf "waiver parse failed: %s" msg

let test_waiver_roundtrip () =
  let findings = findings_of "let d = Random.int 6\nlet t = Sys.time ()" in
  check_int "two findings" 2 (List.length findings);
  let w = parse_waivers "# comment\n\nR2 lib/fixture/fixture.ml synthetic test site\n" in
  let { Waivers.kept; waived; stale } = Waivers.apply w findings ~scanned:[ fixture_path ] in
  check_int "R1 kept" 1 (List.length kept);
  check_int "R2 waived" 1 waived;
  check_int "no stale" 0 (List.length stale);
  (* Same waiver, but the file has no R2 finding left: stale. *)
  let clean = findings_of "let t = Sys.time ()" in
  let applied = Waivers.apply w clean ~scanned:[ fixture_path ] in
  check_int "stale reported" 1 (List.length applied.stale);
  check_bool "stale jsonl parses" true
    (json_valid (Waivers.stale_to_json (List.hd applied.stale)));
  (* A waiver whose file was not scanned is ignored, not stale. *)
  let applied = Waivers.apply w clean ~scanned:[ "lib/other.ml" ] in
  check_int "unscanned not stale" 0 (List.length applied.stale)

let test_waiver_syntax () =
  check_bool "reason required" true
    (Result.is_error (Waivers.of_string ~name:"w" "R1 lib/x.ml"));
  (match Waivers.of_string ~name:"w" "R12 lib/x.ml some reason" with
  | Error msg ->
      (* the known ids come from the rule catalogue *)
      check_bool "rule id validated against the catalogue" true
        (String.ends_with ~suffix:"(known: R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11)" msg)
  | Ok _ -> Alcotest.fail "R12 accepted");
  check_bool "typed rule ids accepted" true
    (Result.is_ok (Waivers.of_string ~name:"w" "R9 lib/x.ml some reason"));
  check_bool "R11 accepted" true
    (Result.is_ok (Waivers.of_string ~name:"w" "R11 lib/x.ml some reason"));
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
(* Driver over a compiled tree *)

let write_file dir name contents =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
  path

(* A compiled tree without a build system: [dir/lib/NAME.ml] is
   typechecked in-process and its Typedtree saved as
   [dir/lib/.objs/NAME.cmt], the way dune lays units out beside their
   sources. *)
let compiled_tree sources =
  let dir = Filename.temp_dir "bgl_lint_test" "" in
  let lib = Filename.concat dir "lib" in
  let objs = Filename.concat lib ".objs" in
  Sys.mkdir lib 0o755;
  Sys.mkdir objs 0o755;
  Clflags.binary_annotations := true;
  List.iter
    (fun (name, src) ->
      let path = write_file lib (name ^ ".ml") src in
      let u = typecheck ~path ~modname:(String.capitalize_ascii name) src in
      Cmt_format.save_cmt
        (Filename.concat objs (name ^ ".cmt"))
        u.modname (Implementation u.structure) (Some path) Env.empty None None)
    sources;
  (dir, lib)

let run_ok ?waivers paths =
  match Driver.run ?waivers paths with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "driver failed: %s" (Bgl_resilience.Error.to_string e)

let test_driver_tree () =
  let dir, lib = compiled_tree [ ("one", "let d = Random.int 6\n"); ("two", "let ok = 1\n") ] in
  ignore (write_file lib "notml.txt" "Random.int is only flagged in compiled units\n");
  (* dune's generated alias units hold no code and are not scanned. *)
  let generated = write_file lib "dune__exe.ml-gen" "let generated = ()\n" in
  let alias = typecheck ~path:generated ~modname:"Dune__exe" "let generated = ()\n" in
  Cmt_format.save_cmt (Filename.concat lib ".objs/dune__exe.cmt") alias.modname
    (Implementation alias.structure) (Some generated) Env.empty None None;
  let outcome = run_ok [ dir ] in
  check_int "scanned both units" 2 outcome.files_scanned;
  check_int "one finding" 1 (List.length outcome.findings);
  check_bool "not clean" false (Driver.clean outcome);
  check_int "jsonl line per finding" 1 (List.length (Driver.to_jsonl outcome));
  List.iter
    (fun line -> check_bool "jsonl line parses" true (json_valid line))
    (Driver.to_jsonl outcome);
  (* A source file resolves to the one unit compiled from it, and a
     partial run leaves the other files' waivers alone. *)
  let waivers = parse_waivers "R2 lib/two.ml matches nothing in two.ml\n" in
  let single = run_ok ~waivers [ Filename.concat lib "one.ml" ] in
  check_int "single file scanned" 1 single.files_scanned;
  check_int "single file finding" 1 (List.length single.findings);
  check_int "other file's waiver not stale" 0 (List.length single.stale);
  check_int "...but stale on the full run" 1 (List.length (run_ok ~waivers [ dir ]).stale)

let test_driver_errors () =
  let expect_io what ?(mentions = "") result =
    match result with
    | Error (Bgl_resilience.Error.Io { detail; _ }) ->
        let n = String.length mentions in
        let rec has i =
          i + n <= String.length detail && (String.sub detail i n = mentions || has (i + 1))
        in
        check_bool (what ^ " says " ^ mentions) true (has 0)
    | Error e -> Alcotest.failf "%s: expected Io, got %s" what (Bgl_resilience.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: expected an io error" what
  in
  expect_io "missing path" (Driver.run [ "/nonexistent-bgl-lint-path" ]);
  let _, lib = compiled_tree [ ("one", "let ok = 1\n") ] in
  let uncompiled = write_file lib "fresh.ml" "let ok = 2\n" in
  expect_io "source with no unit" ~mentions:"build first" (Driver.run [ uncompiled ]);
  let bare = Filename.temp_dir "bgl_lint_bare" "" in
  ignore (write_file bare "loose.ml" "let ok = 3\n");
  expect_io "tree with no units" ~mentions:"build first" (Driver.run [ bare ]);
  (* Source that does not parse is a Parse error from the front end. *)
  match Cmt_loader.typecheck_source ~path:"lib/broken.ml" "let x =" with
  | Error (Bgl_resilience.Error.Parse _) -> ()
  | Error e -> Alcotest.failf "expected Parse, got %s" (Bgl_resilience.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Interprocedural rules R7-R11 *)

(* The R7 findings alone: the fixtures' sinks also trip R1/R2. *)
let r7_of (findings, consumed) =
  (List.filter (fun (f : Finding.t) -> f.rule = Finding.R7) findings, consumed)

let test_r7 () =
  (* A sink reached through a call chain is reported at the root. *)
  check_fires "R7" "let helper () = Sys.time ()\nlet root () = helper ()";
  check_fires "R7" "let deep () = Random.int 6\nlet mid () = deep ()\nlet root () = mid ()";
  check_fires "R7" "let root () = Sys.getenv \"HOME\"";
  (* The fixed form threads the clock in as data. *)
  check_silent "R7" "let helper clock = clock ()\nlet root clock = helper clock";
  (* A sink in a function the root never calls is not the root's problem. *)
  check_silent "R7" "let stray () = Sys.time ()\nlet root () = 1 + 1";
  (* The finding lands on the root and carries the full call path. *)
  match fst (r7_of (lint "let helper () = Sys.time ()\nlet root () = helper ()")) with
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
    r7_of (lint ~waivers "let helper () = Sys.time ()\nlet root () = helper ()")
  in
  check_int "barrier suppresses" 0 (List.length findings);
  check_int "barrier consumed" 1 (List.length consumed);
  (* ...but the root's own file is never a barrier for direct sinks. *)
  let findings, consumed = r7_of (lint ~waivers "let root () = Sys.time ()") in
  check_int "direct sink still fires" 1 (List.length findings);
  check_int "nothing consumed" 0 (List.length consumed);
  (* A run whose units hold no root (one file of a partial run) can
     reach no barrier, so it must not call the entry stale. *)
  let _, consumed = lint ~waivers "let helper () = Sys.time ()" in
  check_int "rootless run does not judge barriers" 1 (List.length consumed)

(* Bgl_obs.Clock reads Bechamel's [Monotonic_clock.now]; a fixture
   unit of that name stands in for the library. The barrier sits on
   the helper's own unit, as it does on the clock's consumers. *)
let test_clock_sink () =
  let clock =
    typecheck ~path:"lib/fixture/monotonic_clock.ml" ~modname:"Monotonic_clock" "let now () = 0L"
  in
  check_bool "R1 fires on the monotonic read" true
    (fires ~deps:[ clock ] "R1" "let t = Monotonic_clock.now ()");
  let helper =
    typecheck ~path:"lib/fixture/helper.ml" ~modname:"Helper" ~deps:[ clock ]
      "let helper () = Monotonic_clock.now ()"
  in
  let r7 ?(waivers = []) src =
    let root = typecheck ~deps:[ clock; helper ] src in
    r7_of (Typed_rules.check ~config:fixture_config ~waivers [ helper; root ])
  in
  let trails src = List.map (fun (f : Finding.t) -> f.trail) (fst (r7 src)) in
  let via_helper = [ [ "Fixture.root"; "Helper.helper"; "Monotonic_clock.now" ] ] in
  Alcotest.(check (list (list string)))
    "call trail" via_helper
    (trails "let root () = Helper.helper ()");
  (* Module aliases and binding operators are call edges too. *)
  Alcotest.(check (list (list string)))
    "through a helper alias" via_helper
    (trails "module H = Helper\nlet root () = H.helper ()");
  Alcotest.(check (list (list string)))
    "through a clock alias"
    [ [ "Fixture.root"; "Monotonic_clock.now" ] ]
    (trails "module C = Monotonic_clock\nlet root () = C.now ()");
  Alcotest.(check (list (list string)))
    "through let*"
    [ [ "Fixture.root"; "Fixture.let*"; "Monotonic_clock.now" ] ]
    (trails
       "let ( let* ) x f = ignore (Monotonic_clock.now ()); f x\n\
        let root () = let* y = 1 in y");
  let waivers = parse_waivers "R7 lib/fixture/helper.ml consumer of the clock\n" in
  let findings, consumed = r7 ~waivers "let root () = Helper.helper ()" in
  check_int "helper's barrier suppresses" 0 (List.length findings);
  check_int "helper's barrier consumed" 1 (List.length consumed)

let test_r8 () =
  check_fires "R8"
    "let run () =\n\
    \  let counter = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> incr counter) in\n\
    \  Domain.join d";
  check_fires "R8" "let run tbl = Domain.spawn (fun () -> Hashtbl.add tbl 1 1)";
  check_fires "R8"
    "type cell = { mutable n : int }\nlet run (c : cell) = Domain.spawn (fun () -> c.n <- 1)";
  (* Sanctioned discipline: Atomic, a record carrying its own Mutex,
     and the pool's disjoint-index array idiom. *)
  check_silent "R8"
    "let run () =\n\
    \  let counter = Atomic.make 0 in\n\
    \  let d = Domain.spawn (fun () -> Atomic.incr counter) in\n\
    \  Domain.join d";
  check_silent "R8"
    "type guarded = { lock : Mutex.t; mutable n : int }\n\
     let run (g : guarded) = Domain.spawn (fun () -> g.n <- 1)";
  check_silent "R8" "let run (a : int array) = Domain.spawn (fun () -> a.(0) <- 1)";
  (* Capturing immutable data is the point of closures. *)
  check_silent "R8" "let run xs = Domain.spawn (fun () -> List.length xs)";
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
  check_fires "R8" (pool_fixture "ref 0" "incr hits");
  check_silent "R8" (pool_fixture "Atomic.make 0" "Atomic.incr hits")

let test_r9 () =
  (* The raisable set is interprocedural: the raise is two calls away. *)
  check_fires "R9"
    "exception Budget_exceeded\n\
     let deep () = raise Budget_exceeded\n\
     let mid () = deep () + 1\n\
     let run () = try mid () with _ -> 0";
  (* [exception _] match arms are the same hazard. *)
  check_fires "R9"
    "exception Injected\n\
     let deep () = raise Injected\n\
     let run () = match deep () with n -> n | exception _ -> 0";
  (* Re-raising catch-alls and specific handlers pass. *)
  check_silent "R9"
    "exception Budget_exceeded\n\
     let deep () = raise Budget_exceeded\n\
     let run () = try deep () with e -> raise e";
  check_silent "R9"
    "exception Budget_exceeded\n\
     let deep () = raise Budget_exceeded\n\
     let run () = try deep () with Budget_exceeded -> 0";
  (* Unlike R4, a catch-all over unprotected exceptions is
     not this rule's business. *)
  check_silent "R9" "let harmless () = raise Not_found\nlet run () = try harmless () with _ -> 0"

let test_r10 () =
  (* Any [state <-] outside the blessed transition function fires. *)
  (match
     findings_of
       "type job = { mutable state : int }\n\
        let transition j = j.state <- 1\n\
        let sneaky j = j.state <- 2"
   with
  | [ f ] ->
      Alcotest.(check string) "rule" "R10" (Finding.id f.rule);
      Alcotest.(check (list string)) "culprit def" [ "Fixture.sneaky" ] f.trail
  | fs -> Alcotest.failf "expected exactly one R10 finding, got %d" (List.length fs));
  (* The blessed writer alone is clean. *)
  check_silent "R10"
    "type job = { mutable state : int }\nlet transition j = j.state <- 1";
  (* Type-keyed: an unrelated record with a [state] field is free. *)
  check_silent "R10"
    "type rngst = { mutable state : int }\nlet bump (r : rngst) = r.state <- r.state + 1"

(* ------------------------------------------------------------------ *)
(* R11 unreached export *)

(* R11 findings over fixture units: a library unit (lib/fixture/) and
   the units that may reach it, each with its own path and modname. *)
let r11_of ?(waivers = []) units =
  let findings, consumed = Typed_rules.check ~config:fixture_config ~waivers units in
  ( List.filter_map
      (fun (f : Finding.t) -> if f.rule = Finding.R11 then Some (List.hd f.trail) else None)
      findings,
    consumed )

let test_r11 () =
  let lib src = typecheck src in
  let unit_at path modname ~lib src = typecheck ~path ~modname ~deps:[ lib ] src in
  let unreached ?waivers units = fst (r11_of ?waivers units) in
  let names = Alcotest.(check (list string)) in
  (* A value only a test reaches is dead: tests are not roots. *)
  let l = lib "let used = 1\nlet only_tested = 2" in
  names "test-only value fires" [ "Fixture.only_tested" ]
    (unreached
       [
         l;
         unit_at "bin/probe.ml" "Probe" ~lib:l "let () = ignore Fixture.used";
         unit_at "test/probe_test.ml" "Probe_test" ~lib:l "let () = ignore Fixture.only_tested";
       ]);
  (* Reached from an executable through a module alias or a [let*]. *)
  let l = lib "let via_alias () = 1\nlet ( let* ) o f = Option.bind o f" in
  names "alias and let* reach" []
    (unreached
       [
         l;
         unit_at "examples/probe.ml" "Probe" ~lib:l
           "module F = Fixture\n\
            let () = ignore (F.via_alias ())\n\
            let () = ignore Fixture.(let* x = Some 1 in Some (x + 1))";
       ]);
  (* Reached transitively, through another library def. *)
  let l = lib "let inner () = 1\nlet outer () = inner () + 1" in
  names "transitive reach" []
    (unreached
       [ l; unit_at "perfbench/probe.ml" "Probe" ~lib:l "let () = ignore (Fixture.outer ())" ]);
  (* Library defs that only reach each other are all dead. *)
  let l = lib "let a () = 1\nlet b () = a () + 1\nlet c () = b () + 1\nlet live = 0" in
  names "closed chain fires" [ "Fixture.a"; "Fixture.b"; "Fixture.c" ]
    (unreached [ l; unit_at "bin/probe.ml" "Probe" ~lib:l "let () = ignore Fixture.live" ]);
  (* With no executable among the units nothing is judged, and an R11
     waiver is consumed rather than stale. *)
  let waivers = parse_waivers "R11 lib/fixture/fixture.ml fixture-declared keep\n" in
  let found, consumed = r11_of ~waivers [ lib "let orphan = 1" ] in
  names "rootless run is silent" [] found;
  check_int "rootless run consumes the waiver" 1 (List.length consumed)

(* dune names every executable module [Dune__exe__M]: bench/main.ml and
   perfbench/main.ml are both [Dune__exe__Main]. Their defs stay apart,
   and a finding in one is reported against its own file. *)
let test_same_named_executables () =
  let main dir src =
    typecheck ~path:(dir ^ "/main.ml") ~modname:"Dune__exe__Main" src
  in
  let units =
    [
      main "bench" "let () = print_endline \"bench\"";
      main "perfbench"
        "let () =\n\
        \  let counter = ref 0 in\n\
        \  Domain.join (Domain.spawn (fun () -> incr counter))";
    ]
  in
  let graph = Callgraph.build ~spawn_sites:Typed_rules.default.spawn_sites units in
  let file_of name =
    Option.map (fun (d : Callgraph.def) -> d.file) (Hashtbl.find_opt graph.defs name)
  in
  Alcotest.(check (option string)) "bench def" (Some "bench/main.ml") (file_of "bench.Main.(init)");
  Alcotest.(check (option string))
    "perfbench def" (Some "perfbench/main.ml") (file_of "perfbench.Main.(init)");
  let findings = fst (Typed_rules.check ~waivers:[] units) in
  match List.filter (fun (f : Finding.t) -> f.rule = Finding.R8) findings with
  | [ f ] -> Alcotest.(check string) "R8 reported in its own file" "perfbench/main.ml" f.file
  | fs -> Alcotest.failf "expected exactly one R8 finding, got %d" (List.length fs)

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

(* The typed rules run through the one driver entry point, so a path
   with nothing compiled behind it is an Io error there too. *)
let test_run_typed_errors () =
  match Driver.run [ "/nonexistent-bgl-typed-path" ] with
  | Error (Bgl_resilience.Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected Io, got %s" (Bgl_resilience.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected an io error"

(* ------------------------------------------------------------------ *)
(* qcheck: the analyzer is total on well-typed source *)

(* A generator of small, well-typed implementations: int, float and
   bool expressions built over the top-level [x : int] and [y : float],
   with every rule's trigger applied at its real type. Every production
   parenthesizes its sub-expressions, and names that must be unique in
   a structure (modules, types) carry the item's index, so anything it
   emits typechecks and reaches the rules. *)
let gen_source =
  let open QCheck.Gen in
  let p1 fmt = map (Printf.sprintf fmt) in
  let rec int_e n =
    let leaf =
      oneof
        [
          map string_of_int small_signed_int;
          oneofl [ "x"; "(Random.int 6)"; "(Random.State.int (Random.State.make [| 1 |]) 6)" ];
        ]
    in
    if n <= 0 then leaf
    else
      let i = int_e (n / 2) and f = float_e (n / 2) and b = bool_e (n / 2) in
      oneof
        [
          leaf;
          map2 (Printf.sprintf "(%s) + (%s)") i i;
          map3 (Printf.sprintf "if %s then (%s) else (%s)") b i i;
          (let* handler = oneofl [ "_"; "Not_found"; "e"; "Exit | _" ] in
           map2 (fun a b -> Printf.sprintf "(try (%s) with %s -> (%s))" a handler b) i i);
          (let* pat = oneofl [ "0"; "exception _"; "exception Exit" ] in
           map2 (fun a b -> Printf.sprintf "(match (%s) with %s -> (%s) | n -> n)" a pat b) i i);
          map2 (Printf.sprintf "(let z = (%s) in z + (%s))") i i;
          p1 "(let r = ref (%s) in incr r; !r)" i;
          p1 "int_of_float (%s)" f;
          (let* writer =
             oneofl [ "print_int"; "prerr_int"; "Printf.printf \"%d\""; "Format.eprintf \"%d\"" ]
           in
           map2 (fun a b -> Printf.sprintf "(%s (%s); (%s))" writer a b) i i);
        ]
  and float_e n =
    let leaf =
      oneofl
        [
          "1.5";
          "0.";
          "y";
          "(Unix.gettimeofday ())";
          "(Sys.time ())";
          "(Unix.time ())";
          "(Random.float 1.)";
        ]
    in
    if n <= 0 then leaf
    else
      let i = int_e (n / 2) and f = float_e (n / 2) in
      oneof [ leaf; map2 (Printf.sprintf "(%s) +. (%s)") f f; p1 "float_of_int (%s)" i ]
  and bool_e n =
    let i = int_e (n / 2) and f = float_e (n / 2) in
    oneof
      [
        return "true";
        map2 (Printf.sprintf "((%s) = (%s))") i i;
        map2 (Printf.sprintf "((%s) <= (%s))") i i;
        p1 "((%s) = 1.5)" f;
        p1 "(0. <> (%s))" f;
        map2 (Printf.sprintf "((%s) = (%s))") f f;
      ]
  in
  let item k =
    let* e = int_e 6 in
    oneofl
      [
        Printf.sprintf "let v = %s" e;
        Printf.sprintf "let g () = %s" e;
        Printf.sprintf "let () = ignore (%s)" e;
        Printf.sprintf "module M%d = struct let inner = %s end" k e;
        Printf.sprintf "type t%d = { mutable f%d : int }\nlet r%d = { f%d = %s }" k k k k e;
        Printf.sprintf "let cell = ref (%s)" e;
        "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8";
        "let buf = Buffer.create 16";
        "let lock = Mutex.create ()";
        Printf.sprintf "let a = Atomic.make (%s)" e;
      ]
  in
  let* n = int_range 1 6 in
  let* items = flatten_l (List.init n item) in
  let* path = oneofl [ "lib/gen/gen.ml"; "bin/gen.ml"; "test/gen.ml" ] in
  return (path, String.concat "\n" ("let x = 3\nlet y = 0.5" :: items))

let prop_never_raises =
  QCheck.Test.make ~count:500 ~name:"analyzer total on generated source"
    (QCheck.make ~print:(fun (p, s) -> p ^ ":\n" ^ s) gen_source)
    (fun (path, src) ->
      match Cmt_loader.typecheck_source ~path src with
      | Error e ->
          QCheck.Test.fail_reportf "generator emitted ill-typed source (%s):\n%s"
            (Bgl_resilience.Error.to_string e) src
      | Ok u -> (
          match Typed_rules.check ~waivers:[] [ u ] with
          | findings, _ ->
              List.for_all (fun (f : Finding.t) -> json_valid (Finding.to_json f)) findings
          | exception e ->
              QCheck.Test.fail_reportf "analyzer raised %s on:\n%s" (Printexc.to_string e) src))

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
         match Cmt_loader.units [ root ] with Ok units -> units | Error _ -> []))

let prop_typed_total =
  QCheck.Test.make ~count:25 ~name:"typed analyzer total on built unit subsets"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      match Lazy.force built_units with
      | [] -> true (* no build tree in sight; vacuous *)
      | units -> (
          let units = List.filteri (fun i _ -> Hashtbl.hash (seed, i) land 3 <> 0) units in
          match Typed_rules.check ~waivers:[] units with
          | findings, _ ->
              List.for_all
                (fun (f : Finding.t) -> json_valid (Finding.to_json f))
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
          Alcotest.test_case "closed blind spots" `Quick test_blind_spots;
          Alcotest.test_case "finding spans" `Quick test_spans;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "R7 determinism taint" `Quick test_r7;
          Alcotest.test_case "R7 waiver barrier" `Quick test_r7_barrier;
          Alcotest.test_case "monotonic clock is a sink" `Quick test_clock_sink;
          Alcotest.test_case "R8 cross-domain escape" `Quick test_r8;
          Alcotest.test_case "R9 exception flow" `Quick test_r9;
          Alcotest.test_case "R10 lifecycle protocol" `Quick test_r10;
          Alcotest.test_case "R11 unreached export" `Quick test_r11;
          Alcotest.test_case "same-named executable modules" `Quick test_same_named_executables;
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
