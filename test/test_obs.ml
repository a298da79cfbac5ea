(* Tests for the observability subsystem: registry instruments and
   exposition formats, span timers, sinks, the JSONL trace schema, the
   heartbeat, engine wiring through Bgl_obs.Runtime, and the paper's
   capacity-metric identity as a property over randomized runs. *)

open Bgl_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_counter_gauge () =
  let reg = Registry.create () in
  let c = Registry.counter reg "c_total" in
  Registry.inc c;
  Registry.inc c;
  Registry.add c 3.5;
  check_float "counter accumulates" 5.5 (Registry.counter_value c);
  let c' = Registry.counter reg "c_total" in
  Registry.inc c';
  check_float "same name, same cell" 6.5 (Registry.counter_value c);
  let g = Registry.gauge reg "g" in
  Registry.set g 42.;
  Registry.set g (-1.);
  check_float "gauge keeps last" (-1.) (Registry.gauge_value g);
  check_bool "negative add rejected" true
    (try
       Registry.add c (-1.);
       false
     with Invalid_argument _ -> true);
  check_bool "kind clash rejected" true
    (try
       ignore (Registry.gauge reg "c_total");
       false
     with Invalid_argument _ -> true)

let test_noop_registry () =
  let c = Registry.counter Registry.noop "x" in
  Registry.inc c;
  check_float "noop counter stays 0" 0. (Registry.counter_value c);
  let h = Registry.histogram Registry.noop "h" in
  Registry.observe h 1.;
  check_int "noop histogram stays empty" 0 (Registry.histogram_count h);
  check_bool "is_noop" true (Registry.is_noop Registry.noop);
  check_bool "real not noop" false (Registry.is_noop (Registry.create ()));
  check_string "noop exposition empty" "" (Registry.to_prometheus Registry.noop)

let test_histogram_bucketing () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~buckets:[| 1.; 5.; 10. |] "lat" in
  List.iter (Registry.observe h) [ 0.5; 1.; 3.; 7.; 20. ];
  check_int "count" 5 (Registry.histogram_count h);
  check_float "sum" 31.5 (Registry.histogram_sum h);
  let text = Registry.to_prometheus reg in
  let expect_line line =
    check_bool (Printf.sprintf "exposition has %S" line) true
      (List.mem line (String.split_on_char '\n' text))
  in
  (* Buckets are cumulative; le="1" is inclusive. *)
  expect_line "lat_bucket{le=\"1\"} 2";
  expect_line "lat_bucket{le=\"5\"} 3";
  expect_line "lat_bucket{le=\"10\"} 4";
  expect_line "lat_bucket{le=\"+Inf\"} 5";
  expect_line "lat_sum 31.5";
  expect_line "lat_count 5";
  expect_line "# TYPE lat histogram";
  check_bool "unsorted buckets rejected" true
    (try
       ignore (Registry.histogram reg ~buckets:[| 2.; 1. |] "bad");
       false
     with Invalid_argument _ -> true)

let test_prometheus_labels () =
  let reg = Registry.create () in
  Registry.inc (Registry.counter reg ~help:"events by kind" "ev_total{kind=\"a\"}");
  Registry.inc (Registry.counter reg "ev_total{kind=\"b\"}");
  Registry.inc (Registry.counter reg "ev_total{kind=\"b\"}");
  let text = Registry.to_prometheus reg in
  let lines = String.split_on_char '\n' text in
  check_bool "one HELP for the base name" true
    (1 = List.length (List.filter (fun l -> l = "# HELP ev_total events by kind") lines));
  check_bool "one TYPE for the base name" true
    (1 = List.length (List.filter (fun l -> l = "# TYPE ev_total counter") lines));
  check_bool "series a" true (List.mem "ev_total{kind=\"a\"} 1" lines);
  check_bool "series b" true (List.mem "ev_total{kind=\"b\"} 2" lines)

let test_csv_export () =
  let reg = Registry.create () in
  Registry.inc (Registry.counter reg "c_total");
  Registry.set (Registry.gauge reg "g") 2.5;
  let h = Registry.histogram reg ~buckets:[| 1. |] "h" in
  Registry.observe h 0.5;
  let csv = Registry.to_csv reg in
  let lines = String.split_on_char '\n' csv in
  check_string "header" "name,kind,value" (List.hd lines);
  check_bool "counter row" true (List.mem "c_total,counter,1" lines);
  check_bool "gauge row" true (List.mem "g,gauge,2.5" lines);
  check_bool "bucket row quoted (contains comma-free name)" true
    (List.exists (fun l -> l = "h_bucket{le=\"1\"},histogram,1"
                           || l = "\"h_bucket{le=\"\"1\"\"}\",histogram,1") lines);
  check_bool "sum row" true (List.mem "h_sum,histogram,0.5" lines);
  check_bool "count row" true (List.mem "h_count,histogram,1" lines)

(* ------------------------------------------------------------------ *)
(* Span timers *)

let test_span_disabled_and_enabled () =
  Span.reset ();
  Span.set_enabled false;
  check_int "disabled run passes value through" 7 (Span.time ~name:"t.off" (fun () -> 7));
  check_bool "disabled records nothing" true
    (not (List.exists (fun (s : Span.stat) -> s.name = "t.off") (Span.stats ())));
  (* A fake clock advancing 1 s per reading makes durations exact. *)
  let t = ref 0. in
  Span.set_clock (fun () ->
      t := !t +. 1.;
      !t);
  Span.set_enabled true;
  check_int "enabled run passes value through" 9 (Span.time ~name:"t.on" (fun () -> 9));
  ignore (Span.time ~name:"t.on" (fun () -> 0));
  (try Span.time ~name:"t.on" (fun () -> failwith "boom") with Failure _ -> ());
  Span.set_enabled false;
  Span.set_clock Unix.gettimeofday;
  (match List.find_opt (fun (s : Span.stat) -> s.name = "t.on") (Span.stats ()) with
  | None -> Alcotest.fail "span t.on missing"
  | Some s ->
      check_int "raising calls still counted" 3 s.count;
      check_float "each call took one fake second" 3. s.total_s;
      check_float "mean" 1. s.mean_s);
  let reg = Registry.create () in
  Span.export reg;
  check_bool "export publishes gauges" true
    (List.mem "bgl_span_calls{span=\"t.on\"}" (Registry.names reg));
  Span.reset ();
  check_int "reset clears" 0 (List.length (Span.stats ()))

(* ------------------------------------------------------------------ *)
(* Sinks *)

let test_sink_buffer_and_tee () =
  let b = Sink.buffer () in
  Sink.emit b 1;
  Sink.emit b 2;
  Sink.emit b 3;
  Alcotest.(check (list int)) "buffer keeps order" [ 1; 2; 3 ] (Sink.contents b);
  check_int "count" 3 (Sink.count b);
  check_bool "buffered" true (Sink.is_buffered b);
  let n = Sink.null () in
  Sink.emit n 9;
  check_int "null counts" 1 (Sink.count n);
  Alcotest.(check (list int)) "null retains nothing" [] (Sink.contents n);
  let lines = ref [] in
  let j = Sink.jsonl_writer ~to_json:string_of_int (fun l -> lines := l :: !lines) in
  let t = Sink.tee b j in
  Sink.emit t 4;
  Alcotest.(check (list int)) "tee reaches buffer" [ 1; 2; 3; 4 ] (Sink.contents t);
  Alcotest.(check (list string)) "tee reaches writer" [ "4" ] !lines;
  check_bool "tee buffered if a branch is" true (Sink.is_buffered t)

(* ------------------------------------------------------------------ *)
(* JSONL helpers and validator *)

let test_jsonl_valid () =
  List.iter
    (fun s -> check_bool (Printf.sprintf "valid: %s" s) true (Jsonl.valid s))
    [
      "{}"; "[]"; "null"; "true"; "-1.5e3"; "\"a\\n\\u0041\"";
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}"; "  [ 1 , 2 ]  ";
    ];
  List.iter
    (fun s -> check_bool (Printf.sprintf "invalid: %s" s) false (Jsonl.valid s))
    [ ""; "{"; "{\"a\":}"; "[1,]"; "nul"; "1 2"; "{'a':1}"; "{\"a\":1}}"; "\"\\x\"" ];
  check_string "escape" "a\\\"b\\\\c\\nd" (Jsonl.escape "a\"b\\c\nd");
  check_string "float null for nan" "null" (Jsonl.float Float.nan);
  check_string "obj" "{\"a\":1,\"b\":\"x\"}" (Jsonl.obj [ ("a", Jsonl.int 1); ("b", Jsonl.string "x") ])

(* ------------------------------------------------------------------ *)
(* Recorder: JSONL trace schema *)

let box x y z sx sy sz = Bgl_torus.Box.make (Bgl_torus.Coord.make x y z) (Bgl_torus.Shape.make sx sy sz)

let test_recorder_trace_schema () =
  let open Bgl_sim.Recorder in
  let cases =
    [
      ( Run_meta
          {
            time = 0.; schema = 2; log = "l"; failures = "f"; policy = "p";
            dims = Bgl_torus.Dims.make 4 4 8; wrap = true; jobs = 3; seed = Some 42;
            parent = None; repair_time = 0.; checkpointed = false;
          },
        {|{"ev":"run_meta","t":0.0,"schema":2,"log":"l","failures":"f","policy":"p","dims":"4x4x8","wrap":true,"jobs":3,"seed":42,"parent":null,"repair_time":0.0,"checkpointed":false}|}
      );
      ( Job_arrived { job = 5; time = 10.; size = 32; run_time = 600. },
        {|{"ev":"job_arrive","t":10.0,"job":5,"size":32,"work":600.0}|} );
      ( Job_started { job = 5; time = 10.; box = box 0 1 2 4 2 1; restart = false },
        {|{"ev":"job_start","t":10.0,"job":5,"box":{"x":0,"y":1,"z":2,"sx":4,"sy":2,"sz":1},"restart":false}|}
      );
      ( Job_killed { job = 5; time = 11.5; node = 17; lost_node_seconds = 96. },
        {|{"ev":"job_kill","t":11.5,"job":5,"node":17,"lost_node_s":96.0}|} );
      (Job_finished { job = 5; time = 12. }, {|{"ev":"job_finish","t":12.0,"job":5}|});
      ( Job_migrated { job = 5; time = 13.; from_box = box 0 0 0 1 1 1; to_box = box 1 0 0 1 1 1 },
        {|{"ev":"job_migrate","t":13.0,"job":5,"from":{"x":0,"y":0,"z":0,"sx":1,"sy":1,"sz":1},"to":{"x":1,"y":0,"z":0,"sx":1,"sy":1,"sz":1}}|}
      );
      ( Node_failed { time = 14.; node = 3; victim = Some 5 },
        {|{"ev":"node_fail","t":14.0,"node":3,"victim":5}|} );
      ( Node_failed { time = 14.; node = 3; victim = None },
        {|{"ev":"node_fail","t":14.0,"node":3,"victim":null}|} );
      (Node_repaired { time = 15.; node = 3 }, {|{"ev":"node_repair","t":15.0,"node":3}|});
    ]
  in
  List.iter
    (fun (entry, expected) ->
      let json = entry_to_json entry in
      check_string "schema line" expected json;
      check_bool "line is valid JSON" true (Jsonl.valid json))
    cases;
  (* The run tag prefixes the object without disturbing the rest. *)
  check_string "run-tagged line"
    {|{"run":"abc","ev":"job_finish","t":12.0,"job":5}|}
    (entry_to_json ~run:"abc" (Job_finished { job = 5; time = 12. }))

let test_recorder_streaming () =
  let lines = ref [] in
  let sink =
    Sink.jsonl_writer ~to_json:Bgl_sim.Recorder.entry_to_json (fun l -> lines := l :: !lines)
  in
  let r = Bgl_sim.Recorder.create ~sink () in
  Bgl_sim.Recorder.record r (Bgl_sim.Recorder.Job_finished { job = 1; time = 1. });
  Bgl_sim.Recorder.record r (Bgl_sim.Recorder.Job_finished { job = 2; time = 2. });
  check_int "length counts streamed entries" 2 (Bgl_sim.Recorder.length r);
  check_bool "not buffered" false (Bgl_sim.Recorder.is_buffered r);
  check_int "entries empty for streaming sinks" 0 (List.length (Bgl_sim.Recorder.entries r));
  check_int "two lines written" 2 (List.length !lines);
  List.iter (fun l -> check_bool "streamed line valid" true (Jsonl.valid l)) !lines

(* ------------------------------------------------------------------ *)
(* Recorder: the parser beside the printer *)

let sample_report =
  {
    Bgl_sim.Metrics.total_jobs = 3; completed_jobs = 2; avg_wait = 1.5; avg_response = 20.25;
    avg_bounded_slowdown = Float.nan; median_bounded_slowdown = 1.; p90_bounded_slowdown = 2.;
    util = 0.5; unused = 0.25; lost = 0.25; busy_fraction = 0.75; makespan = 100.;
    failures_injected = 4; job_kills = 1; restarts = 1; lost_work = 96.; migrations = 0;
    checkpoints = 0;
  }

let test_recorder_summary_line () =
  let open Bgl_sim.Recorder in
  let meta =
    {
      time = 0.; schema = 2; log = {|"ev":"run_summary"|}; failures = "f"; policy = "p";
      dims = Bgl_torus.Dims.make 4 4 8; wrap = true; jobs = 3; seed = None; parent = None;
      repair_time = 0.; checkpointed = false;
    }
  in
  let b = box 0 0 0 1 1 1 in
  let one_of_each =
    [
      Run_meta meta;
      Job_arrived { job = 1; time = 1.; size = 1; run_time = 1. };
      Job_started { job = 1; time = 1.; box = b; restart = false };
      Job_killed { job = 1; time = 2.; node = 0; lost_node_seconds = 1. };
      Job_finished { job = 1; time = 3. };
      Job_migrated { job = 1; time = 3.; from_box = b; to_box = b };
      Node_failed { time = 2.; node = 0; victim = Some 1 };
      Node_repaired { time = 4.; node = 0 };
      Run_summary { time = 5.; report = sample_report };
    ]
  in
  (* The last tag smuggles the trailer's fragment into a string member;
     escaping keeps it from matching. *)
  List.iter
    (fun run ->
      List.iter
        (fun e ->
          let expected = match e with Run_summary _ -> true | _ -> false in
          check_bool
            (Printf.sprintf "%s, run %s" (name e) (Option.value ~default:"none" run))
            expected
            (is_summary_line (entry_to_json ?run e)))
        one_of_each)
    [ None; Some "abc"; Some {|","ev":"run_summary|} ]

(* Generators for every constructor. [exact] floats are the ones the
   trace's 12-significant-digit rendering reproduces bit for bit. *)
let finite_float = QCheck.Gen.map (fun x -> if Float.is_finite x then x else 0.) QCheck.Gen.float
let exact_float = QCheck.Gen.map (fun x -> float_of_string (Printf.sprintf "%.12g" x)) finite_float

(* Ids within the 2^53 range a JSON number holds exactly. *)
let gen_id = QCheck.Gen.map (fun x -> x asr 10) QCheck.Gen.int

let gen_entry real =
  let open QCheck.Gen in
  let open Bgl_sim.Recorder in
  let str = string_size (int_bound 8) in
  let gen_box =
    let+ x = gen_id and+ y = gen_id and+ z = gen_id and+ sx = int_range 1 64
    and+ sy = int_range 1 64 and+ sz = int_range 1 64 in
    box x y z sx sy sz
  in
  (* Report floats print with 17 digits: any finite value or nan
     (written as null) round-trips. *)
  let gen_report =
    let report_float = frequency [ (9, finite_float); (1, return Float.nan) ] in
    let+ i = list_repeat 7 (int_bound 100_000) and+ f = list_repeat 11 report_float in
    match (i, f) with
    | [ total_jobs; completed_jobs; failures_injected; job_kills; restarts; migrations; checkpoints ],
      [ avg_wait; avg_response; avg_bounded_slowdown; median_bounded_slowdown;
        p90_bounded_slowdown; util; unused; lost; busy_fraction; makespan; lost_work ] ->
        {
          Bgl_sim.Metrics.total_jobs; completed_jobs; avg_wait; avg_response;
          avg_bounded_slowdown; median_bounded_slowdown; p90_bounded_slowdown; util; unused;
          lost; busy_fraction; makespan; failures_injected; job_kills; restarts; lost_work;
          migrations; checkpoints;
        }
    | _ -> assert false
  in
  oneof
    [
      (let+ time = real and+ schema = gen_id and+ log = str and+ failures = str and+ policy = str
       and+ nx = int_range 1 64 and+ ny = int_range 1 64 and+ nz = int_range 1 64 and+ wrap = bool
       and+ jobs = gen_id and+ seed = opt gen_id and+ parent = opt str
       and+ repair_time = real and+ checkpointed = bool in
       Run_meta
         {
           time; schema; log; failures; policy; dims = Bgl_torus.Dims.make nx ny nz; wrap; jobs;
           seed; parent; repair_time; checkpointed;
         });
      (let+ job = gen_id and+ time = real and+ size = gen_id and+ run_time = real in
       Job_arrived { job; time; size; run_time });
      (let+ job = gen_id and+ time = real and+ box = gen_box and+ restart = bool in
       Job_started { job; time; box; restart });
      (let+ job = gen_id and+ time = real and+ node = gen_id and+ lost_node_seconds = real in
       Job_killed { job; time; node; lost_node_seconds });
      (let+ job = gen_id and+ time = real in
       Job_finished { job; time });
      (let+ job = gen_id and+ time = real and+ from_box = gen_box and+ to_box = gen_box in
       Job_migrated { job; time; from_box; to_box });
      (let+ time = real and+ node = gen_id and+ victim = opt gen_id in
       Node_failed { time; node; victim });
      (let+ time = real and+ node = gen_id in
       Node_repaired { time; node });
      (let+ time = real and+ report = gen_report in
       Run_summary { time; report });
    ]

let arb_tagged real =
  QCheck.make
    ~print:(fun (run, e) -> Bgl_sim.Recorder.entry_to_json ?run e)
    QCheck.Gen.(pair (opt (string_size (int_bound 8))) (gen_entry real))

let prop_trace_round_trip =
  QCheck.Test.make ~name:"entry_of_json inverts entry_to_json" ~count:500 (arb_tagged exact_float)
    (fun (run, e) ->
      (* [compare], not [=]: a report may hold nan. *)
      compare
        (Bgl_sim.Recorder.entry_of_json (Bgl_sim.Recorder.entry_to_json ?run e))
        (Ok (run, e))
      = 0)

(* With arbitrary floats one print-parse pass normalises the line, and
   the normalised line is a fixed point. The first pass itself may
   rewrite bytes: a non-integral time such as 123456789012.5 prints as
   "123456789012" at 12 digits, parses back as an integral value, and
   then prints as "123456789012.0". *)
let prop_trace_normal_form =
  QCheck.Test.make ~name:"print . parse is idempotent on trace lines" ~count:500
    (arb_tagged finite_float) (fun (run, e) ->
      let reprint line =
        match Bgl_sim.Recorder.entry_of_json line with
        | Ok (run, e) -> Bgl_sim.Recorder.entry_to_json ?run e
        | Error msg -> QCheck.Test.fail_reportf "%s: %s" line msg
      in
      let once = reprint (Bgl_sim.Recorder.entry_to_json ?run e) in
      reprint once = once)

let rec json_of_value = function
  | Jsonl.Null -> "null"
  | Bool b -> Jsonl.bool b
  | Number f -> Printf.sprintf "%.17g" f
  | String s -> Jsonl.string s
  | Array l -> "[" ^ String.concat "," (List.map json_of_value l) ^ "]"
  | Object fields -> Jsonl.obj (List.map (fun (k, v) -> (k, json_of_value v)) fields)

(* Every value obtained by deleting exactly one object member, at any
   depth. *)
let rec deletions = function
  | Jsonl.Object fields ->
      List.concat
        (List.mapi
           (fun i (_, v) ->
             let without = List.filteri (fun j _ -> j <> i) fields in
             let with_child c = List.mapi (fun j (k, x) -> (k, if j = i then c else x)) fields in
             Jsonl.Object without
             :: List.map (fun c -> Jsonl.Object (with_child c)) (deletions v))
           fields)
  | Null | Bool _ | Number _ | String _ | Array _ -> []

let prop_trace_parser_total =
  QCheck.Test.make ~name:"entry_of_json is total and needs every member" ~count:300
    QCheck.(pair string (make (QCheck.Gen.pair (gen_entry finite_float) QCheck.Gen.nat)))
    (fun (junk, (e, cut)) ->
      let line = Bgl_sim.Recorder.entry_to_json e in
      let total s = match Bgl_sim.Recorder.entry_of_json s with Ok _ | Error _ -> true in
      total junk
      && total (String.sub line 0 (cut mod (String.length line + 1)))
      &&
      match Jsonl.parse line with
      | Error msg -> QCheck.Test.fail_reportf "printer wrote invalid JSON: %s" msg
      | Ok v ->
          List.for_all
            (fun d -> Result.is_error (Bgl_sim.Recorder.entry_of_json (json_of_value d)))
            (deletions v))

(* ------------------------------------------------------------------ *)
(* Heartbeat *)

let test_heartbeat () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let t = ref 0. in
  let clock () =
    t := !t +. 0.5;
    !t
  in
  let hb = Heartbeat.create ~out:ppf ~clock ~every:2 () in
  let snap () = { Heartbeat.sim_time = 100.; queue_depth = 3; running = 2; free_nodes = 10 } in
  for _ = 1 to 5 do
    Heartbeat.tick hb snap
  done;
  Format.pp_print_flush ppf ();
  check_int "5 ticks" 5 (Heartbeat.ticks hb);
  check_int "2 beats" 2 (Heartbeat.beats hb);
  let lines = String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "") in
  check_int "2 lines" 2 (List.length lines);
  (* 2 events per 0.5 s of fake wall clock = 4 ev/s. *)
  check_string "beat line" "[obs] events=2 sim_t=100.0 queue=3 running=2 free=10 ev/s=4"
    (List.hd lines);
  check_bool "every < 1 rejected" true
    (try
       ignore (Heartbeat.create ~every:0 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine wiring through Runtime *)

let run_scenario ?(seed = 3) ?(n_jobs = 80) ?(load = 1.0) ?failures () =
  let scenario =
    Bgl_core.Scenario.make ~n_jobs ~load ?failures_paper:failures ~seed
      ~profile:Bgl_workload.Profile.sdsc Bgl_core.Scenario.Fault_oblivious
  in
  Bgl_core.Scenario.run scenario

let test_engine_registry_wiring () =
  let reg = Registry.create () in
  Runtime.set_registry reg;
  let outcome = Fun.protect ~finally:Runtime.reset (fun () -> run_scenario ()) in
  let value name = Registry.counter_value (Registry.counter reg name) in
  check_float "one arrival event per job" 80. (value "bgl_sim_events_total{kind=\"arrival\"}");
  check_float "finishes = completions" (float_of_int outcome.report.completed_jobs)
    (value "bgl_sim_job_finishes_total");
  check_bool "wait histogram saw every completion" true
    (Registry.histogram_count (Registry.histogram reg "bgl_sim_job_wait_seconds")
    = outcome.report.completed_jobs);
  check_bool "snapshot renders" true (String.length (Registry.to_prometheus reg) > 0)

let test_engine_trace_wiring () =
  let lines = ref [] in
  Runtime.set_trace_writer (Some (fun l -> lines := l :: !lines));
  let outcome = Fun.protect ~finally:Runtime.reset (fun () -> run_scenario ()) in
  let lines = List.rev !lines in
  check_bool "trace non-empty" true (List.length lines > 0);
  List.iter (fun l -> check_bool "trace line valid JSON" true (Jsonl.valid l)) lines;
  let member name l =
    match Jsonl.parse l with
    | Ok v -> Option.bind (Jsonl.member name v) Jsonl.to_string_opt
    | Error _ -> None
  in
  let ev l = Option.value ~default:"" (member "ev" l) in
  check_string "first line is run_meta" "run_meta" (ev (List.hd lines));
  check_string "last line is run_summary" "run_summary" (ev (List.nth lines (List.length lines - 1)));
  (* Every line carries the same run id tag. *)
  (match member "run" (List.hd lines) with
  | None -> Alcotest.fail "run_meta line has no run tag"
  | Some rid ->
      check_bool "every line tagged with the run id" true
        (List.for_all (fun l -> member "run" l = Some rid) lines));
  let finishes = List.length (List.filter (fun l -> ev l = "job_finish") lines) in
  check_int "one finish line per completed job" outcome.report.completed_jobs finishes

(* ------------------------------------------------------------------ *)
(* Capacity-metric identity over randomized runs (Section 3.4) *)

let prop_omega_identity =
  QCheck.Test.make ~name:"omega_util + omega_unused + omega_lost = 1 across random runs"
    ~count:8
    QCheck.(triple (int_bound 1000) (float_range 0.6 1.6) (int_bound 40))
    (fun (seed, load, failures) ->
      let outcome = run_scenario ~seed ~n_jobs:60 ~load ~failures () in
      let r = outcome.report in
      let sum = r.util +. r.unused +. r.lost in
      Float.abs (sum -. 1.) <= 1e-9
      && r.util >= 0. && r.util <= 1. +. 1e-9
      && r.unused >= 0. && r.unused <= 1. +. 1e-9)

let () =
  Alcotest.run "bgl_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "noop registry" `Quick test_noop_registry;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "prometheus labels" `Quick test_prometheus_labels;
          Alcotest.test_case "csv export" `Quick test_csv_export;
        ] );
      ( "span",
        [ Alcotest.test_case "disabled and enabled" `Quick test_span_disabled_and_enabled ] );
      ( "sink", [ Alcotest.test_case "buffer, null, tee" `Quick test_sink_buffer_and_tee ] );
      ( "jsonl", [ Alcotest.test_case "validator and emitters" `Quick test_jsonl_valid ] );
      ( "recorder",
        [
          Alcotest.test_case "trace schema" `Quick test_recorder_trace_schema;
          Alcotest.test_case "streaming sink" `Quick test_recorder_streaming;
          Alcotest.test_case "summary line detector" `Quick test_recorder_summary_line;
          QCheck_alcotest.to_alcotest prop_trace_round_trip;
          QCheck_alcotest.to_alcotest prop_trace_normal_form;
          QCheck_alcotest.to_alcotest prop_trace_parser_total;
        ] );
      ("heartbeat", [ Alcotest.test_case "beats every N ticks" `Quick test_heartbeat ]);
      ( "engine",
        [
          Alcotest.test_case "registry wiring" `Quick test_engine_registry_wiring;
          Alcotest.test_case "trace wiring" `Quick test_engine_trace_wiring;
        ] );
      ("metrics", [ QCheck_alcotest.to_alcotest prop_omega_identity ]);
    ]
