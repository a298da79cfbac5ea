(* Tests for bgl_audit: the trace parser, the checkers, and the
   certificate driver.

   Positive direction: real engine runs — sequential, parallel across
   domains, with failures, repair, migration and checkpointing — must
   all audit clean (the qcheck differential property). Negative
   direction: every checker must fire on a trace seeded with exactly
   its corruption class. *)

open Bgl_audit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Audit a trace held in memory, as one file. *)
let audit_lines lines = Driver.audit ~files:[ "<memory>" ] (Trace.of_lines [ ("<memory>", lines) ])

(* ------------------------------------------------------------------ *)
(* Capturing engine traces through the obs runtime *)

let capture ?(seed = 3) ?(n_jobs = 60) ?(load = 1.0) ?(failures = 0) ?config ?parent ?registry
    ?(algo = Bgl_core.Scenario.Fault_oblivious) () =
  let lines = ref [] in
  Fun.protect ~finally:Bgl_obs.Runtime.reset (fun () ->
      Option.iter Bgl_obs.Runtime.set_registry registry;
      Bgl_obs.Runtime.set_trace_writer (Some (fun l -> lines := l :: !lines));
      Bgl_obs.Runtime.set_trace_parent parent;
      let scenario =
        Bgl_core.Scenario.make ~n_jobs ~load ~failures_paper:failures ~seed ?config
          ~profile:Bgl_workload.Profile.sdsc algo
      in
      let outcome = Bgl_core.Scenario.run scenario in
      (outcome, List.rev !lines))

let has_rule rule (c : Driver.certificate) =
  List.exists (fun (f : Finding.t) -> f.rule = rule) c.findings

let fail_cert what (c : Driver.certificate) =
  Alcotest.failf "%s:@.%a" what (fun ppf c -> Driver.pp ppf c) c

let expect_rule rule lines =
  let c = audit_lines lines in
  if not (has_rule rule c) then
    fail_cert (Printf.sprintf "expected a %s finding" (Finding.name rule)) c

(* ------------------------------------------------------------------ *)
(* Line surgery helpers for seeding corruptions *)

let ev_of line =
  match Bgl_obs.Jsonl.parse line with
  | Ok v -> (
      match Option.bind (Bgl_obs.Jsonl.member "ev" v) Bgl_obs.Jsonl.to_string_opt with
      | Some e -> e
      | None -> "")
  | Error _ -> ""

let find_line ev lines =
  match List.find_opt (fun l -> ev_of l = ev) lines with
  | Some l -> l
  | None -> Alcotest.failf "trace has no %s line" ev

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* Replace the value of the first ["name":<value>] member with [value]
   (raw JSON). Values never contain ',' or '}', so scanning to the next
   delimiter is exact. *)
let patch_member name value line =
  let key = Printf.sprintf "\"%s\":" name in
  match find_sub line key with
  | None -> Alcotest.failf "no %s member in %s" name line
  | Some i ->
      let start = i + String.length key in
      let stop = ref start in
      while !stop < String.length line && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      String.sub line 0 start ^ value ^ String.sub line !stop (String.length line - !stop)

(* Replace the first line satisfying [sel] using [f]; [f] returning []
   deletes it, returning several inserts. *)
let edit_first sel f lines =
  let rec go = function
    | [] -> Alcotest.fail "no line matched the corruption target"
    | l :: rest when sel l -> f l @ rest
    | l :: rest -> l :: go rest
  in
  go lines

(* ------------------------------------------------------------------ *)
(* Clean runs certify *)

let test_clean_sequential () =
  let outcome, lines = capture ~failures:5000 () in
  let c = audit_lines lines in
  if not (Driver.pass c) then fail_cert "clean run must audit clean" c;
  check_int "one section" 1 c.sections;
  check_int "complete" 1 c.complete;
  check_bool "ran checks" true (c.checks > 0);
  check_int "no dropped tail" 0 c.dropped_tail;
  check_bool "completed jobs" true (outcome.report.completed_jobs > 0);
  (* to_jsonl renders exactly the certificate line when clean *)
  match Driver.to_jsonl c with
  | [ cert_line ] ->
      check_bool "certificate line" true (Option.is_some (find_sub cert_line "\"kind\":\"certificate\""));
      check_bool "pass flag" true (Option.is_some (find_sub cert_line "\"pass\":true"))
  | ls -> Alcotest.failf "expected 1 jsonl line, got %d" (List.length ls)

let test_clean_parallel_two_domains () =
  (* Two engine runs interleave into one writer from two domains; the
     run tag demultiplexes them back into two clean sections. *)
  let lines = ref [] in
  let m = Mutex.create () in
  Fun.protect ~finally:Bgl_obs.Runtime.reset (fun () ->
      Bgl_obs.Runtime.set_trace_writer
        (Some
           (fun l ->
             Mutex.lock m;
             lines := l :: !lines;
             Mutex.unlock m));
      let snap = Bgl_obs.Runtime.snapshot () in
      let spawn seed =
        Domain.spawn (fun () ->
            Bgl_obs.Runtime.install snap;
            let scenario =
              Bgl_core.Scenario.make ~n_jobs:40 ~load:1.0 ~failures_paper:4000 ~seed
                ~profile:Bgl_workload.Profile.sdsc Bgl_core.Scenario.Fault_oblivious
            in
            ignore (Bgl_core.Scenario.run scenario))
      in
      let d1 = spawn 1 and d2 = spawn 2 in
      Domain.join d1;
      Domain.join d2);
  let c = audit_lines (List.rev !lines) in
  if not (Driver.pass c) then fail_cert "parallel runs must audit clean" c;
  check_int "two sections" 2 c.sections;
  check_int "both complete" 2 c.complete

let test_clean_repair_checkpoint_migration () =
  let config =
    {
      Bgl_sim.Config.default with
      repair_time = 600.;
      migration = true;
      checkpoint = Some (Bgl_sim.Checkpoint.Periodic { interval = 1800.; overhead = 60. });
    }
  in
  let _, lines = capture ~failures:8000 ~config () in
  let c = audit_lines lines in
  if not (Driver.pass c) then fail_cert "repair+migration+checkpoint run must audit clean" c;
  check_int "complete" 1 c.complete

(* ------------------------------------------------------------------ *)
(* The differential property: every engine run audits clean *)

let prop_every_run_audits_clean =
  QCheck.Test.make ~name:"every engine run audits clean" ~count:6
    QCheck.(triple (int_bound 1000) (float_range 0.6 1.6) (int_bound 8000))
    (fun (seed, load, failures) ->
      let config =
        match seed mod 3 with
        | 0 -> None
        | 1 -> Some { Bgl_sim.Config.default with repair_time = 900.; migration = true }
        | _ ->
            Some
              {
                Bgl_sim.Config.default with
                checkpoint = Some (Bgl_sim.Checkpoint.Periodic { interval = 3600.; overhead = 30. });
              }
      in
      let _, lines = capture ~seed ~n_jobs:50 ~load ~failures ?config () in
      let c = audit_lines lines in
      if not (Driver.pass c) then
        QCheck.Test.fail_reportf "audit failed:@.%a" (fun ppf c -> Driver.pp ppf c) c
      else c.sections = 1 && c.complete = 1)

(* ------------------------------------------------------------------ *)
(* One engine property over every size: x extents on both sides of the
   32-bit mask word boundaries (31-33, 63-65, 96), machine volumes
   from 165 to 585 nodes, axes of length 1,
   both wrap modes, four policies, and migration with repair downtime
   on some cases. Every run is differential-checked and must audit
   clean. Each MFP check rescans the reference MFP, so the MFP-family
   policies check every [mfp_sample]th query. *)

let every_size_dims =
  List.map
    (fun (x, y, z) -> Bgl_torus.Dims.make x y z)
    [
      (31, 4, 4);
      (32, 4, 4);
      (33, 4, 4);
      (63, 1, 8);
      (64, 2, 4);
      (65, 1, 8);
      (96, 1, 4);
      (96, 2, 3);
      (33, 5, 1);
      (65, 3, 3);
    ]

let every_size_algos =
  Bgl_core.Scenario.
    [
      First_fit;
      Fault_oblivious;
      Balancing { confidence = 0.5 };
      Tie_breaking { accuracy = 0.9 };
    ]

let mfp_sample = 7

type size_case = {
  dims : Bgl_torus.Dims.t;
  wrap : bool;
  algo : Bgl_core.Scenario.algo;
  migration : bool;
  seed : int;
  n_jobs : int;
}

let size_case_gen =
  QCheck.Gen.(
    map
      (fun ((dims, wrap, algo), (migration, seed, n_jobs)) ->
        { dims; wrap; algo; migration; seed; n_jobs })
      (pair
         (triple (oneofl every_size_dims) bool (oneofl every_size_algos))
         (triple bool (int_bound 1000) (int_range 100 150))))

let print_size_case c =
  Printf.sprintf "dims=%s wrap=%b algo=%s migration=%b seed=%d jobs=%d"
    (Bgl_torus.Dims.to_string c.dims) c.wrap
    (Bgl_core.Scenario.algo_label c.algo)
    c.migration c.seed c.n_jobs

let prop_every_size_audits_clean registry =
  QCheck.Test.make ~name:"every size and mode audits clean under differential checks" ~count:16
    (QCheck.make ~print:print_size_case size_case_gen)
    (fun c ->
      let config =
        {
          Bgl_sim.Config.default with
          dims = c.dims;
          wrap = c.wrap;
          migration = c.migration;
          repair_time = (if c.migration then 3600. else 0.);
        }
      in
      let sample = match c.algo with First_fit -> 1 | _ -> mfp_sample in
      Bgl_partition.Finder.set_differential ~sample true;
      let _, lines =
        Fun.protect
          ~finally:(fun () -> Bgl_partition.Finder.set_differential false)
          (capture ~registry ~seed:c.seed ~n_jobs:c.n_jobs ~load:2.0 ~failures:4000 ~config
             ~algo:c.algo)
      in
      let cert = audit_lines lines in
      if not (Driver.pass cert) then
        QCheck.Test.fail_reportf "audit failed:@.%a" (fun ppf c -> Driver.pp ppf c) cert
      else cert.sections = 1 && cert.complete = 1)

(* The property's runs must reach the reservation's what-if query and
   both finder guards, or a clean run proves little. *)
let test_every_size_property () =
  let registry = Bgl_obs.Registry.create () in
  let _, _, run = QCheck_alcotest.to_alcotest (prop_every_size_audits_clean registry) in
  run ();
  List.iter
    (fun name ->
      let checks = Bgl_obs.Registry.counter_value (Bgl_obs.Registry.counter registry name) in
      check_bool (Printf.sprintf "%s > 0 (%g)" name checks) true (checks > 0.))
    [
      "bgl_finder_differential_checks_total";
      "bgl_finder_mfp_differential_checks_total";
      "bgl_finder_what_if_differential_checks_total";
    ]

(* ------------------------------------------------------------------ *)
(* Corrupted traces: each checker fires on its corruption class *)

let corrupted () =
  (* A run guaranteed to contain kills so every event kind appears. *)
  let _, lines = capture ~failures:10000 ~n_jobs:60 () in
  check_bool "fixture has kills" true (List.exists (fun l -> ev_of l = "job_kill") lines);
  lines

let test_detects_malformed_line () =
  let lines = corrupted () in
  (* Mid-file garbage is a violation; only a *final* truncated line is
     forgiven as a crash tail. *)
  let seeded = edit_first (fun l -> ev_of l = "job_start") (fun l -> [ "{garbage"; l ]) lines in
  expect_rule Finding.A1 seeded

let test_crash_tail_tolerated () =
  let lines = corrupted () in
  (* Dropping the summary truncates the run (A2), but an unparseable
     final line alone is dropped silently, like the journal reader. *)
  let c = audit_lines (lines @ [ "{\"ev\":\"job_fin" ]) in
  if not (Driver.pass c) then fail_cert "crash tail must not fail the audit" c;
  check_int "tail dropped" 1 c.dropped_tail

let test_detects_framing () =
  let lines = corrupted () in
  let seeded = edit_first (fun l -> ev_of l = "run_summary") (fun _ -> []) lines in
  expect_rule Finding.A2 seeded

let test_detects_timestamp_regression () =
  let lines = corrupted () in
  let finish = find_line "job_finish" lines in
  let seeded = edit_first (( = ) finish) (fun l -> [ patch_member "t" "-5.0" l ]) lines in
  expect_rule Finding.A3 seeded

let test_detects_invalid_box () =
  let lines = corrupted () in
  (* Shape 9 cannot fit the 4x4x8 torus in any axis. *)
  let seeded =
    edit_first (fun l -> ev_of l = "job_start") (fun l -> [ patch_member "sx" "9" l ]) lines
  in
  expect_rule Finding.A4 seeded

let test_detects_overlap () =
  let lines = corrupted () in
  (* The same start replayed twice: the second occupation collides
     with the first on every node of the partition. *)
  let seeded = edit_first (fun l -> ev_of l = "job_start") (fun l -> [ l; l ]) lines in
  expect_rule Finding.A5 seeded

let test_detects_lifecycle () =
  let lines = corrupted () in
  (* A finish for a job that never arrived is an illegal transition. *)
  let seeded =
    edit_first (fun l -> ev_of l = "job_finish") (fun l -> [ patch_member "job" "999999" l; l ]) lines
  in
  expect_rule Finding.A6 seeded

let test_detects_lost_job () =
  let lines = corrupted () in
  (* Erase a finish: the job is still running at the summary and the
     completion counts disagree — conservation must fire. *)
  let seeded = edit_first (fun l -> ev_of l = "job_finish") (fun _ -> []) lines in
  expect_rule Finding.A7 seeded

let test_detects_omega_mismatch () =
  let lines = corrupted () in
  let seeded =
    edit_first (fun l -> ev_of l = "run_summary") (fun l -> [ patch_member "util" "0.123456" l ]) lines
  in
  expect_rule Finding.A8 seeded

let findings_of rule (c : Driver.certificate) =
  List.filter (fun (f : Finding.t) -> f.rule = rule) c.findings

let test_detects_non_integral_id () =
  (* JSON numbers parse as floats; an id member a float cannot hold as
     an exact integer is malformed, never truncated to some other id. *)
  let lines = corrupted () in
  List.iter
    (fun (ev, name, value) ->
      let target = find_line ev lines in
      let lineno =
        let rec go i = function
          | [] -> Alcotest.fail "target line vanished"
          | l :: rest -> if l = target then i else go (i + 1) rest
        in
        go 1 lines
      in
      let seeded = edit_first (( = ) target) (fun l -> [ patch_member name value l ]) lines in
      match findings_of Finding.A1 (audit_lines seeded) with
      | [ f ] -> check_int (Printf.sprintf "%s %s=%s flagged at its line" ev name value) lineno f.line
      | fs -> Alcotest.failf "%s %s=%s: expected one A1, got %d" ev name value (List.length fs))
    [ ("job_finish", "job", "7.9"); ("job_finish", "job", "1e300"); ("node_fail", "node", "-0.5") ]

let test_schema_version () =
  let _, lines = capture ~n_jobs:20 () in
  List.iter
    (fun (schema, expected) ->
      let seeded =
        edit_first
          (fun l -> ev_of l = "run_meta")
          (fun l -> [ patch_member "schema" (string_of_int schema) l ])
          lines
      in
      let a2 = findings_of Finding.A2 (audit_lines seeded) in
      check_int (Printf.sprintf "A2 findings for schema %d" schema) expected (List.length a2);
      List.iter (fun (f : Finding.t) -> check_int "anchored at the run_meta line" 1 f.line) a2)
    [ (1, 1); (2, 0); (3, 1) ]

(* ------------------------------------------------------------------ *)
(* Stitched kill-then-resume audits *)

let split_half lines =
  let n = List.length lines in
  check_bool "fixture long enough" true (n > 6);
  List.filteri (fun i _ -> i < n / 2) lines

let test_stitched_resume_certifies () =
  let _, first = capture ~failures:5000 () in
  let truncated = split_half first in
  (* The resumed attempt replays the same scenario (deterministic) and
     declares the journal it resumes from. *)
  let _, resumed = capture ~failures:5000 ~parent:"deadbeef" () in
  let t = Trace.of_lines [ ("attempt1.trace", truncated); ("attempt2.trace", resumed) ] in
  let c = Driver.audit ~files:[ "attempt1.trace"; "attempt2.trace" ] t in
  if not (Driver.pass c) then fail_cert "stitched resume must certify" c;
  check_int "two sections" 2 c.sections;
  check_int "one complete" 1 c.complete

let test_truncated_without_resume_fails () =
  let _, first = capture ~failures:5000 () in
  let c = audit_lines (split_half first) in
  check_bool "truncated-only trace must not certify" true (has_rule Finding.A2 c)

let test_resume_must_declare_parent () =
  let _, first = capture ~failures:5000 () in
  let truncated = split_half first in
  let _, resumed = capture ~failures:5000 () in
  (* Complete replay exists but claims no parent journal: the seam is
     unexplained and the stitch check must object. *)
  let t = Trace.of_lines [ ("attempt1.trace", truncated); ("attempt2.trace", resumed) ] in
  let c = Driver.audit ~files:[ "attempt1.trace"; "attempt2.trace" ] t in
  check_bool "undeclared resume must not certify" true (has_rule Finding.A2 c)

let test_divergent_replay_fails () =
  let _, first = capture ~failures:5000 () in
  let truncated = split_half first in
  (* A "resume" of a *different* scenario under the same run id cannot
     be an event prefix; force the id clash by reusing attempt 1's
     run_meta run tag. *)
  let _, other = capture ~failures:5000 ~seed:99 ~parent:"deadbeef" () in
  let run_tag l =
    match Bgl_obs.Jsonl.parse l with
    | Ok v -> Option.bind (Bgl_obs.Jsonl.member "run" v) Bgl_obs.Jsonl.to_string_opt
    | Error _ -> None
  in
  match (run_tag (List.hd truncated), run_tag (List.hd other)) with
  | Some id1, Some id2 ->
      let retagged = List.map (patch_member "run" (Printf.sprintf "\"%s\"" id1)) other in
      check_bool "fixture ids differ" true (id1 <> id2);
      let t = Trace.of_lines [ ("attempt1.trace", truncated); ("attempt2.trace", retagged) ] in
      let c = Driver.audit ~files:[ "a"; "b" ] t in
      check_bool "divergent replay must not certify" true (has_rule Finding.A2 c)
  | _ -> Alcotest.fail "traces missing run tags"

(* ------------------------------------------------------------------ *)
(* Obs wiring: counters and spans *)

let test_obs_counters () =
  let reg = Bgl_obs.Registry.create () in
  Fun.protect ~finally:Bgl_obs.Runtime.reset (fun () ->
      Bgl_obs.Runtime.set_registry reg;
      let _, lines = capture ~failures:4000 ~n_jobs:30 () in
      Bgl_obs.Runtime.set_registry reg;
      let c = audit_lines lines in
      let value name = Bgl_obs.Registry.counter_value (Bgl_obs.Registry.counter reg name) in
      check_bool "checks counted" true (value "bgl_audit_checks_total" = float_of_int c.checks);
      check_bool "violations counted" true (value "bgl_audit_violations_total" < 0.5))

let () =
  Alcotest.run "bgl_audit"
    [
      ( "clean",
        [
          Alcotest.test_case "sequential run certifies" `Quick test_clean_sequential;
          Alcotest.test_case "two-domain interleaved trace certifies" `Quick
            test_clean_parallel_two_domains;
          Alcotest.test_case "repair+checkpoint+migration certifies" `Quick
            test_clean_repair_checkpoint_migration;
          QCheck_alcotest.to_alcotest prop_every_run_audits_clean;
          Alcotest.test_case "every size and mode audits clean" `Quick test_every_size_property;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "malformed line (A1)" `Quick test_detects_malformed_line;
          Alcotest.test_case "crash tail tolerated" `Quick test_crash_tail_tolerated;
          Alcotest.test_case "framing (A2)" `Quick test_detects_framing;
          Alcotest.test_case "timestamp regression (A3)" `Quick test_detects_timestamp_regression;
          Alcotest.test_case "invalid box (A4)" `Quick test_detects_invalid_box;
          Alcotest.test_case "occupancy overlap (A5)" `Quick test_detects_overlap;
          Alcotest.test_case "lifecycle (A6)" `Quick test_detects_lifecycle;
          Alcotest.test_case "lost job (A7)" `Quick test_detects_lost_job;
          Alcotest.test_case "omega mismatch (A8)" `Quick test_detects_omega_mismatch;
          Alcotest.test_case "non-integral id (A1)" `Quick test_detects_non_integral_id;
          Alcotest.test_case "schema version (A2)" `Quick test_schema_version;
        ] );
      ( "stitch",
        [
          Alcotest.test_case "kill-then-resume certifies" `Quick test_stitched_resume_certifies;
          Alcotest.test_case "truncated alone fails" `Quick test_truncated_without_resume_fails;
          Alcotest.test_case "resume must declare parent" `Quick test_resume_must_declare_parent;
          Alcotest.test_case "divergent replay fails" `Quick test_divergent_replay_fails;
        ] );
      ("obs", [ Alcotest.test_case "audit counters" `Quick test_obs_counters ]);
    ]
