(* Tests for the resilience subsystem: structured CLI errors,
   deterministic failpoints, cooperative budgets, supervised retry and
   quarantine, the crash-safe journal, and kill-and-resume equality of
   journaled sweeps (record-boundary and mid-record truncation). *)

open Bgl_resilience

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test runs with a clean failpoint table; a leaked armed site
   would poison unrelated tests. *)
let wrap f () =
  Failpoint.reset ();
  Fun.protect ~finally:Failpoint.reset f

(* ------------------------------------------------------------------ *)
(* Error *)

let test_error_exit_codes () =
  let code e = Error.exit_code e in
  check_int "usage" 2 (code (Usage "x"));
  check_int "degraded" 3 (code (Degraded { quarantined = []; detail = "" }));
  check_int "parse" 65 (code (Parse { name = "f"; detail = "d" }));
  check_int "internal" 70 (code (Internal "x"));
  check_int "io" 74 (code (Io { path = "p"; detail = "d" }))

let test_error_of_exn () =
  (match Error.of_exn (Failpoint.Injected { site = "s"; visit = 3 }) with
  | Io _ -> ()
  | e -> Alcotest.failf "Injected should map to Io, got %s" (Error.to_string e));
  (match Error.of_exn (Budget.Budget_exceeded { site = "s"; detail = "d" }) with
  | Degraded _ -> ()
  | e -> Alcotest.failf "Budget_exceeded should map to Degraded, got %s" (Error.to_string e));
  (match Error.of_exn (Sys_error "no such file") with
  | Io _ -> ()
  | e -> Alcotest.failf "Sys_error should map to Io, got %s" (Error.to_string e));
  match Error.of_exn Exit with
  | Internal _ -> ()
  | e -> Alcotest.failf "unknown exn should map to Internal, got %s" (Error.to_string e)

let test_error_broken_pipe () =
  (* A vanished peer (broken pipe / reset) is an I/O error with exit
     code 74 in every CLI, not an unexplained Internal crash. *)
  (match Error.of_exn (Unix.Unix_error (Unix.EPIPE, "write", "")) with
  | Io _ as e -> check_int "EPIPE code" 74 (Error.exit_code e)
  | e -> Alcotest.failf "EPIPE should map to Io, got %s" (Error.to_string e));
  match Error.of_exn (Unix.Unix_error (Unix.ECONNRESET, "read", "")) with
  | Io _ as e -> check_int "ECONNRESET code" 74 (Error.exit_code e)
  | e -> Alcotest.failf "ECONNRESET should map to Io, got %s" (Error.to_string e)

let test_error_run_catches () =
  (* run never raises; stderr goes to the real stderr, which alcotest
     tolerates. *)
  check_int "ok passes through" 0 (Error.run ~prog:"t" (fun () -> Ok 0));
  check_int "error maps to its code" 65
    (Error.run ~prog:"t" (fun () -> Result.error (Error.Parse { name = "x"; detail = "y" })));
  check_int "raised exn becomes Internal" 70 (Error.run ~prog:"t" (fun () -> raise Exit))

(* ------------------------------------------------------------------ *)
(* Failpoint *)

let test_failpoint_spec_strings () =
  let ok s = match Failpoint.of_string s with Ok spec -> spec | Error m -> Alcotest.fail m in
  check_bool "bare site is Always" true ((ok "a.b").mode = Failpoint.Always);
  check_bool "once" true ((ok "a.b:once").mode = Failpoint.Once);
  check_bool "visit" true ((ok "a.b:visit=3").mode = Failpoint.Visit 3);
  check_bool "index" true ((ok "a.b:index=2").mode = Failpoint.Index 2);
  check_bool "index,once" true ((ok "a.b:index=2,once").mode = Failpoint.Index_once 2);
  check_bool "prob" true ((ok "a.b:p=0.5,seed=7").mode = Failpoint.Prob { p = 0.5; seed = 7 });
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true (Result.is_error (Failpoint.of_string s)))
    [ ""; "bad site"; "a=b"; "a.b:visit=x"; "a.b:p=2"; "a.b:index=-1"; "a.b:nonsense=1" ];
  List.iter
    (fun s ->
      check_string (Printf.sprintf "round-trip %S" s) s (Failpoint.to_string (ok s)))
    [ "a.b"; "a.b:once"; "a.b:visit=3"; "a.b:index=2"; "a.b:index=2,once" ]

let count_failures f n =
  let fired = ref 0 in
  for _ = 1 to n do
    try f () with Failpoint.Injected _ -> incr fired
  done;
  !fired

let test_failpoint_modes () =
  check_int "unarmed site never fires" 0 (count_failures (fun () -> Failpoint.hit "t.never") 10);
  Failpoint.arm { site = "t.always"; mode = Always };
  check_int "always fires every visit" 10 (count_failures (fun () -> Failpoint.hit "t.always") 10);
  Failpoint.arm { site = "t.once"; mode = Once };
  check_int "once fires once" 1 (count_failures (fun () -> Failpoint.hit "t.once") 10);
  Failpoint.arm { site = "t.v3"; mode = Visit 3 };
  check_int "visit=3 fires on third visit" 1 (count_failures (fun () -> Failpoint.hit "t.v3") 10);
  check_int "visits counted" 10 (Failpoint.visits "t.v3");
  check_int "fired counted" 1 (Failpoint.fired "t.v3");
  Failpoint.arm { site = "t.idx"; mode = Index 4 };
  let i = ref 0 in
  check_int "index=4 fires whenever item 4 runs" 3
    (count_failures
       (fun () ->
         let k = !i mod 6 in
         incr i;
         Failpoint.hit ~index:k "t.idx")
       18);
  Failpoint.arm { site = "t.idx1"; mode = Index_once 4 };
  i := 0;
  check_int "index=4,once fires only the first time" 1
    (count_failures
       (fun () ->
         let k = !i mod 6 in
         incr i;
         Failpoint.hit ~index:k "t.idx1")
       18);
  Failpoint.disarm "t.always";
  check_int "disarmed site is silent" 0 (count_failures (fun () -> Failpoint.hit "t.always") 5)

(* The one --fail parser every CLI shares: a bad spec is a Usage
   error (exit 2), a good one arms its site. *)
let test_cli_arm_failpoints () =
  (match Bgl_core.Cli_flags.arm_failpoints [ "t.cli:index=oops" ] with
  | Error e -> check_int "bad spec exits 2" 2 (Error.exit_code e)
  | Ok () -> Alcotest.fail "bad --fail spec accepted");
  (match Bgl_core.Cli_flags.arm_failpoints [ "t.cli" ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good --fail spec rejected: %s" (Error.to_string e));
  check_int "armed site fires" 1 (count_failures (fun () -> Failpoint.hit "t.cli") 1)

let test_failpoint_prob_deterministic () =
  let sample () =
    Failpoint.arm { site = "t.p"; mode = Prob { p = 0.3; seed = 42 } };
    let pattern = ref [] in
    for _ = 1 to 50 do
      pattern := (try Failpoint.hit "t.p"; false with Failpoint.Injected _ -> true) :: !pattern
    done;
    !pattern
  in
  let a = sample () and b = sample () in
  check_bool "same seed, same firing pattern" true (a = b);
  check_bool "p=0.3 fires sometimes" true (List.mem true a);
  check_bool "p=0.3 spares sometimes" true (List.mem false a)

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_fuel () =
  check_bool "no ambient budget" false (Budget.active ());
  let burned = ref 0 in
  (try
     Budget.with_budget (Some (Budget.make ~fuel:10 ())) (fun () ->
         for _ = 1 to 100 do
           Budget.check ~site:"t.loop";
           incr burned
         done)
   with Budget.Budget_exceeded { site; _ } -> check_string "site reported" "t.loop" site);
  check_int "exactly fuel checks pass" 10 !burned;
  check_bool "budget uninstalled after" false (Budget.active ())

let test_budget_none_is_transparent () =
  Budget.with_budget (Some (Budget.make ~fuel:5 ())) (fun () ->
      Budget.with_budget None (fun () ->
          check_bool "inner None keeps outer installed" true (Budget.active ());
          check_bool "outer budget still burns through a None layer" true
            (try
               for _ = 1 to 50 do
                 Budget.check ~site:"t.nested"
               done;
               false
             with Budget.Budget_exceeded _ -> true)))

(* Checks that pass before a [~deadline:3.] budget raises, with the
   clock faked to one second per read; [layer] wraps the checking
   loop in whatever sits between it and the budget. *)
let checks_before_deadline ~layer =
  Bgl_obs.Clock.with_fake ~step:1. (fun () ->
      let passed = ref 0 in
      (try
         Budget.with_budget (Some (Budget.make ~deadline:3. ())) (fun () ->
             layer (fun () ->
                 for _ = 1 to 10_000 do
                   Budget.check ~site:"t.deadline";
                   incr passed
                 done))
       with Budget.Budget_exceeded { site; _ } -> check_string "site reported" "t.deadline" site);
      !passed)

let test_budget_deadline () =
  (* Installation reads 1 s, so the budget expires at 4 s. Checks 256,
     512, 768 and 1024 read 2, 3, 4 and 5 s: only the 4th read after
     installation is past the deadline. *)
  check_int "raises on check 1024" 1023 (checks_before_deadline ~layer:(fun f -> f ()));
  check_int "a None layer keeps the outer deadline" 1023
    (checks_before_deadline ~layer:(fun f -> Budget.with_budget None f));
  check_bool "budget uninstalled after" false (Budget.active ())

let test_budget_make_validates () =
  Alcotest.check_raises "neither limit"
    (Invalid_argument "Budget.make: give fuel and/or deadline") (fun () ->
      ignore (Budget.make ()));
  check_bool "zero fuel rejected" true
    (try ignore (Budget.make ~fuel:0 ()); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Supervise *)

(* A test policy that records backoff sleeps instead of sleeping. *)
let test_policy ?(max_attempts = 3) ?budget () =
  let slept = ref [] in
  ( { Supervise.default with max_attempts; sleep = (fun s -> slept := s :: !slept); budget },
    slept )

let test_supervise_retry_then_complete () =
  Failpoint.arm { site = "t.cell"; mode = Once };
  let policy, slept = test_policy () in
  match Supervise.run policy (fun () -> Failpoint.hit "t.cell"; 41 + 1) with
  | Completed { value; attempts } ->
      check_int "value" 42 value;
      check_int "second attempt succeeded" 2 attempts;
      check_bool "one backoff sleep" true (!slept = [ Supervise.exponential ~base:0.05 1 ])
  | Quarantined e -> Alcotest.failf "should complete after retry, got %s" e.message

let test_supervise_quarantine () =
  Failpoint.arm { site = "t.cell"; mode = Always };
  let policy, slept = test_policy () in
  match Supervise.run policy (fun () -> Failpoint.hit "t.cell") with
  | Completed _ -> Alcotest.fail "always-failing cell completed"
  | Quarantined e ->
      check_int "all attempts consumed" 3 e.attempts;
      check_bool "still transient (ran out of attempts)" true e.transient;
      check_int "backoff between each attempt" 2 (List.length !slept)

let test_supervise_budget_is_permanent () =
  let policy, slept = test_policy ~budget:(fun () -> Budget.make ~fuel:3 ()) () in
  match Supervise.run policy (fun () ->
          while true do Budget.check ~site:"t.spin" done) with
  | Completed _ -> Alcotest.fail "unbounded loop completed"
  | Quarantined e ->
      check_int "no retry for a deterministic budget blow" 1 e.attempts;
      check_bool "marked permanent" false e.transient;
      check_int "no backoff sleeps" 0 (List.length !slept)

let test_supervise_degradation_summary () =
  let outcomes =
    [|
      Supervise.Completed { value = (); attempts = 1 };
      Supervise.Completed { value = (); attempts = 2 };
      Supervise.Quarantined { message = "boom"; attempts = 3; transient = true };
    |]
  in
  let d = Supervise.degradation_of outcomes in
  check_int "total" 3 d.total;
  check_int "completed" 2 d.completed;
  check_int "retried" 1 d.retried;
  check_bool "quarantined index recorded" true (List.map fst d.quarantined = [ 2 ]);
  check_bool "degraded" true (Supervise.degraded d);
  check_bool "clean run not degraded" false
    (Supervise.degraded (Supervise.degradation_of [| Supervise.Completed { value = (); attempts = 1 } |]))

(* ------------------------------------------------------------------ *)
(* Pool.map_supervised *)

let test_pool_map_supervised_partial () =
  Failpoint.arm { site = "pool.cell"; mode = Index 5 };
  let policy, _ = test_policy () in
  List.iter
    (fun domains ->
      let outcomes, d =
        Pool_helpers.with_pool ~domains (fun pool ->
            Bgl_parallel.Pool.map_supervised pool ~policy (fun i -> i * i) (Array.init 12 Fun.id))
      in
      check_int (Printf.sprintf "total with %d domains" domains) 12 d.Supervise.total;
      check_int "one quarantined" 1 (List.length d.quarantined);
      check_bool "the armed cell" true (List.map fst d.quarantined = [ 5 ]);
      Array.iteri
        (fun i -> function
          | Supervise.Completed { value; _ } ->
              check_int (Printf.sprintf "cell %d value" i) (i * i) value
          | Supervise.Quarantined _ ->
              check_int "only cell 5 is quarantined" 5 i)
        outcomes;
      (* counters must be re-armed for the next domain count *)
      Failpoint.arm { site = "pool.cell"; mode = Index 5 })
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Journal *)

let temp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_journal_roundtrip () =
  let path = temp_path "bgl_test_journal.jsonl" in
  let w = Journal.create ~path in
  Journal.append w ~key:"k1" ~fields:[ ("x", Bgl_obs.Jsonl.int 1) ];
  Journal.append w ~key:"k2" ~fields:[ ("x", Bgl_obs.Jsonl.int 2) ];
  Journal.close w;
  (match Journal.load ~path with
  | Error e -> Alcotest.fail e
  | Ok (entries, dropped) ->
      check_int "two records" 2 (List.length entries);
      check_int "nothing dropped" 0 dropped;
      check_bool "keys in order" true (List.map (fun (e : Journal.entry) -> e.key) entries = [ "k1"; "k2" ]));
  (* resume: append_to extends the same file *)
  let w = Journal.append_to ~path in
  Journal.append w ~key:"k3" ~fields:[];
  Journal.close w;
  (match Journal.load ~path with
  | Error e -> Alcotest.fail e
  | Ok (entries, _) ->
      check_bool "appended after resume" true
        (List.map (fun (e : Journal.entry) -> e.key) entries = [ "k1"; "k2"; "k3" ]));
  Sys.remove path

let test_journal_tolerates_corruption () =
  let good k = Printf.sprintf "{\"cell\":%S,\"x\":1}" k in
  let text =
    String.concat "\n"
      [ good "a"; "{\"no_cell\":true}"; "garbage"; good "b"; "{\"cell\":\"trunc" ]
  in
  let entries, dropped = Journal.load_string text in
  check_bool "good records survive" true
    (List.map (fun (e : Journal.entry) -> e.key) entries = [ "a"; "b" ]);
  check_int "bad lines counted" 3 dropped;
  check_bool "empty input fine" true (Journal.load_string "" = ([], 0))

let test_journal_failpoints () =
  let path = temp_path "bgl_test_journal_fp.jsonl" in
  Failpoint.arm { site = "journal.append"; mode = Index 1 };
  let w = Journal.create ~path in
  Journal.append w ~key:"k0" ~fields:[];
  check_bool "second append fails" true
    (try Journal.append w ~key:"k1" ~fields:[]; false with Failpoint.Injected _ -> true);
  Journal.close w;
  (match Journal.load ~path with
  | Ok (entries, 0) -> check_int "only the durable record" 1 (List.length entries)
  | _ -> Alcotest.fail "journal unreadable");
  Sys.remove path

let test_journal_concurrent_appender () =
  (* The reader must tolerate a live appender on the same file: under
     O_APPEND semantics a concurrent load sees a prefix of whole
     records plus at most one torn in-flight line, which is dropped
     exactly like a crash tail — never mis-parsed, never fatal. *)
  let path = temp_path "bgl_test_journal_live.jsonl" in
  let w = Journal.create ~path in
  Journal.append w ~key:"k0" ~fields:[ ("x", Bgl_obs.Jsonl.int 0) ];
  Journal.append w ~key:"k1" ~fields:[ ("x", Bgl_obs.Jsonl.int 1) ];
  (* simulate the appender caught mid-record: a torn, unterminated line *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let torn = {|{"cell":"k2","x":|} in
  ignore (Unix.write_substring fd torn 0 (String.length torn));
  (match Journal.load ~path with
  | Ok (entries, dropped) ->
      check_int "whole records visible" 2 (List.length entries);
      check_int "torn tail dropped" 1 dropped
  | Error e -> Alcotest.failf "load failed under a live appender: %s" e);
  (* the appender finishes its record: a later load sees everything *)
  let rest = {|2}|} ^ "\n" in
  ignore (Unix.write_substring fd rest 0 (String.length rest));
  Unix.close fd;
  (match Journal.load ~path with
  | Ok (entries, 0) -> check_int "completed record visible" 3 (List.length entries)
  | Ok (_, d) -> Alcotest.failf "unexpected drops after completion: %d" d
  | Error e -> Alcotest.failf "load failed: %s" e);
  Journal.close w;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Metrics report JSON round-trip (resume replays bit-exact figures) *)

let test_report_json_roundtrip () =
  let scenario =
    Bgl_core.Scenario.make ~n_jobs:80 ~load:1.0 ~seed:7
      ~profile:Bgl_workload.Profile.sdsc Bgl_core.Scenario.First_fit
  in
  let report = (Bgl_core.Scenario.run scenario).report in
  let json = Bgl_sim.Metrics.report_to_json report in
  match Bgl_obs.Jsonl.parse json with
  | Error e -> Alcotest.failf "emitted JSON unparseable: %s" e
  | Ok value -> (
      match Bgl_sim.Metrics.report_of_json value with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok back -> check_bool "bit-exact round-trip" true (back = report))

(* ------------------------------------------------------------------ *)
(* Sweep: kill-and-resume equality *)

let tiny_scale =
  { Bgl_core.Figures.n_jobs = 60; seeds = [ 7 ]; a_values = [ 0.9 ]; fail_fracs = [ 0.5 ];
    dims = Bgl_torus.Dims.bgl }

let intro = Option.get Bgl_core.Figures.(find catalogue "intro")

let figures_text figs =
  String.concat "\n" (List.map (Format.asprintf "%a" Bgl_core.Series.pp_figure) figs)

let quiet_policy = fst (test_policy ())

let run_sweep ?policy ?journal () =
  Pool_helpers.with_pool ~domains:2 (fun pool ->
      Bgl_core.Sweep.run ?policy ?journal ~pool intro tiny_scale)

let expect_ok = function
  | Ok o -> o
  | Error e -> Alcotest.failf "sweep failed: %s" (Error.to_string e)

let truncate_file path keep =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd keep;
  Unix.close fd

let test_sweep_resume_equality () =
  let path = temp_path "bgl_test_sweep.jsonl" in
  let clean = expect_ok (run_sweep ()) in
  let journaled = expect_ok (run_sweep ~journal:(Fresh path) ()) in
  check_string "journaling does not change figures" (figures_text clean.figures)
    (figures_text journaled.figures);
  check_bool "journal has every cell" true (journaled.simulated > 1);
  let size = (Unix.stat path).st_size in
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let first_line_len = String.length (List.hd lines) + 1 in
  (* kill at a record boundary: only the first record survives *)
  truncate_file path first_line_len;
  let resumed = expect_ok (run_sweep ~journal:(Resume path) ()) in
  check_string "resume from boundary truncation is byte-identical"
    (figures_text clean.figures) (figures_text resumed.figures);
  check_int "one cell replayed" 1 resumed.replayed;
  check_int "rest simulated" (journaled.simulated - 1) resumed.simulated;
  check_int "no lines dropped" 0 resumed.journal_dropped;
  (* the resumed journal is now complete: everything replays *)
  let full = expect_ok (run_sweep ~journal:(Resume path) ()) in
  check_int "second resume simulates nothing" 0 full.simulated;
  check_string "and is still byte-identical" (figures_text clean.figures)
    (figures_text full.figures);
  (* kill mid-record: the torn tail is dropped, not mis-parsed *)
  truncate_file path (size - 7);
  let torn = expect_ok (run_sweep ~journal:(Resume path) ()) in
  check_int "torn final record dropped" 1 torn.journal_dropped;
  check_int "its cell re-simulated" 1 torn.simulated;
  check_string "mid-record truncation still byte-identical"
    (figures_text clean.figures) (figures_text torn.figures);
  Sys.remove path

let test_sweep_degraded_then_fixed () =
  let path = temp_path "bgl_test_sweep_deg.jsonl" in
  let clean = expect_ok (run_sweep ()) in
  (* one cell fails every attempt -> quarantined, sweep completes *)
  Failpoint.arm { site = "pool.cell"; mode = Index 1 };
  let degraded = expect_ok (run_sweep ~policy:quiet_policy ~journal:(Fresh path) ()) in
  Failpoint.reset ();
  check_int "one cell quarantined" 1 (List.length degraded.quarantined);
  check_int "remaining cells completed" (degraded.degradation.total - 1) degraded.simulated;
  check_bool "degraded_error names the cell" true
    (match Bgl_core.Sweep.degraded_error degraded with
    | Some (Error.Degraded { quarantined = [ name ]; _ }) ->
        let c = List.hd degraded.quarantined in
        String.length name >= String.length c.label
        && String.sub name 0 (String.length c.label) = c.label
    | _ -> false);
  check_bool "clean outcome has no degraded_error" true
    (Bgl_core.Sweep.degraded_error clean = None);
  (* fix (disarm) and resume: only the quarantined cell is simulated,
     output now matches the clean run exactly *)
  let fixed = expect_ok (run_sweep ~journal:(Resume path) ()) in
  check_int "only the quarantined cell re-simulated" 1 fixed.simulated;
  check_int "rest replayed" (degraded.degradation.total - 1) fixed.replayed;
  check_bool "no longer degraded" true (fixed.quarantined = []);
  check_string "fixed resume is byte-identical to clean"
    (figures_text clean.figures) (figures_text fixed.figures);
  Sys.remove path

(* Sweeps share nothing: each [Sweep.run] owns its report table, so
   two sweeps in one process, with no reset between them, each
   simulate every cell. *)
let test_sweep_after_degraded_is_clean () =
  let expected =
    figures_text
      [ Bgl_core.Figures.intro_claim (fun s -> (Bgl_core.Scenario.run s).report) tiny_scale ]
  in
  Failpoint.arm { site = "pool.cell"; mode = Index 1 };
  let degraded = expect_ok (run_sweep ~policy:(fst (test_policy ~max_attempts:1 ())) ()) in
  Failpoint.reset ();
  check_int "first sweep quarantined one cell" 1 (List.length degraded.quarantined);
  let clean = expect_ok (run_sweep ()) in
  check_bool "second sweep not degraded" true (clean.quarantined = []);
  check_int "second sweep simulates every cell" degraded.degradation.total clean.simulated;
  check_string "second sweep equals a clean one" expected (figures_text clean.figures)

let test_sweep_fresh_journal_after_sweep () =
  let path = temp_path "bgl_test_sweep_second.jsonl" in
  let first = expect_ok (run_sweep ()) in
  let journaled = expect_ok (run_sweep ~journal:(Fresh path) ()) in
  let records =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  check_int "second sweep simulates every cell" first.simulated journaled.simulated;
  check_int "nothing replayed" 0 journaled.replayed;
  check_int "one journal record per cell" first.simulated (List.length records);
  Sys.remove path

(* The replay reads only what the collect pass saw: a producer that
   asks for a different cell the second time is refused by name. *)
let test_sweep_replay_miss_names_cell () =
  let cell n_jobs =
    Bgl_core.Scenario.make ~n_jobs ~seed:7 ~profile:Bgl_workload.Profile.sdsc
      Bgl_core.Scenario.Fault_oblivious
  in
  let passes = ref 0 in
  let fickle report _scale =
    incr passes;
    ignore (report (cell (if !passes = 1 then 40 else 50)));
    []
  in
  let label = Bgl_core.Scenario.label (cell 50) in
  match Pool_helpers.with_pool ~domains:1 (fun pool -> Bgl_core.Sweep.run ~pool fickle tiny_scale)
  with
  | _ -> Alcotest.fail "replay of an uncollected cell returned"
  | exception Invalid_argument msg ->
      check_bool "message names the cell" true (String.ends_with ~suffix:label msg)

(* A journaled report whose integer field is not an integer is
   rejected like a corrupt line, not truncated into a wrong replay:
   the record counts as dropped and its cell is simulated again. *)
let test_sweep_rejects_fractional_count () =
  let path = temp_path "bgl_test_sweep_frac.jsonl" in
  let clean = expect_ok (run_sweep ~journal:(Fresh path) ()) in
  let tamper field =
    if String.starts_with ~prefix:{|"completed_jobs":|} field then {|"completed_jobs":2.7|}
    else field
  in
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  let lines =
    List.mapi
      (fun i line ->
        if i = 0 then String.concat "," (List.map tamper (String.split_on_char ',' line))
        else line)
      lines
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" lines));
  let resumed = expect_ok (run_sweep ~journal:(Resume path) ()) in
  check_int "fractional record dropped" 1 resumed.journal_dropped;
  check_int "its cell re-simulated" 1 resumed.simulated;
  check_string "figures still byte-identical" (figures_text clean.figures)
    (figures_text resumed.figures);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* qcheck: parsers never raise on corrupt bytes *)

let never_raises name f =
  QCheck.Test.make ~count:300 ~name QCheck.(string_of_size (Gen.int_bound 400)) (fun s ->
      try f s; true
      with e -> QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) s)

let mangle =
  (* corrupt well-formed content: truncate it, then flip one byte *)
  QCheck.(
    map
      (fun (n, k) ->
        let base = "{\"cell\":\"abc\",\"report\":{\"x\":1.5}}\n1.0\t3\n2 4\n" in
        let s = String.sub base 0 (abs n mod (String.length base + 1)) in
        let b = Bytes.of_string s in
        if Bytes.length b > 0 then Bytes.set b (abs k mod Bytes.length b) '\xff';
        Bytes.to_string b)
      (pair int int))

let qcheck_tests =
  List.map (QCheck_alcotest.to_alcotest ~verbose:false)
    [
      never_raises "Swf.of_string total" (fun s -> ignore (Bgl_trace.Swf.of_string ~name:"q" s));
      never_raises "Failure_log.of_string total" (fun s ->
          ignore (Bgl_trace.Failure_log.of_string ~name:"q" s));
      never_raises "Journal.load_string total" (fun s -> ignore (Journal.load_string s));
      never_raises "Jsonl.parse total" (fun s -> ignore (Bgl_obs.Jsonl.parse s));
      QCheck.Test.make ~count:200 ~name:"mangled records never raise" mangle (fun s ->
          ignore (Journal.load_string s);
          ignore (Bgl_trace.Failure_log.of_string ~name:"m" s);
          true);
    ]

(* ------------------------------------------------------------------ *)

let () =
  let t name f = Alcotest.test_case name `Quick (wrap f) in
  Alcotest.run "resilience"
    [
      ( "error",
        [
          t "exit codes" test_error_exit_codes;
          t "of_exn mapping" test_error_of_exn;
          t "broken pipe maps to Io/74" test_error_broken_pipe;
          t "run never raises" test_error_run_catches;
        ] );
      ( "failpoint",
        [
          t "spec strings" test_failpoint_spec_strings;
          t "firing modes" test_failpoint_modes;
          t "prob is deterministic" test_failpoint_prob_deterministic;
          t "cli --fail arming" test_cli_arm_failpoints;
        ] );
      ( "budget",
        [
          t "fuel exhaustion" test_budget_fuel;
          t "None is transparent" test_budget_none_is_transparent;
          t "deadline on the clock" test_budget_deadline;
          t "make validates" test_budget_make_validates;
        ] );
      ( "supervise",
        [
          t "retry then complete" test_supervise_retry_then_complete;
          t "quarantine after attempts" test_supervise_quarantine;
          t "budget blow is permanent" test_supervise_budget_is_permanent;
          t "degradation summary" test_supervise_degradation_summary;
        ] );
      ("pool", [ t "map_supervised partial results" test_pool_map_supervised_partial ]);
      ( "journal",
        [
          t "round-trip and resume" test_journal_roundtrip;
          t "tolerates corruption" test_journal_tolerates_corruption;
          t "failpoints" test_journal_failpoints;
          t "concurrent appender" test_journal_concurrent_appender;
        ] );
      ("metrics", [ t "report JSON round-trip" test_report_json_roundtrip ]);
      ( "sweep",
        [
          Alcotest.test_case "kill and resume equality" `Slow (wrap test_sweep_resume_equality);
          Alcotest.test_case "degraded then fixed" `Slow (wrap test_sweep_degraded_then_fixed);
          Alcotest.test_case "fractional count re-simulated" `Slow
            (wrap test_sweep_rejects_fractional_count);
          Alcotest.test_case "clean after degraded" `Slow
            (wrap test_sweep_after_degraded_is_clean);
          Alcotest.test_case "fresh journal after sweep" `Slow
            (wrap test_sweep_fresh_journal_after_sweep);
          t "replay miss names the cell" test_sweep_replay_miss_names_cell;
        ] );
      ("qcheck", qcheck_tests);
    ]
