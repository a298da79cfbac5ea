(* Tests for job logs, SWF interchange and failure logs. *)

open Bgl_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let job ?(id = 0) ?(arrival = 0.) ?(size = 1) ?(run_time = 100.) ?estimate () =
  { Job_log.id; arrival; size; run_time; estimate = Option.value estimate ~default:run_time }

(* ------------------------------------------------------------------ *)
(* Job_log *)

let test_make_sorts () =
  let log =
    Job_log.make ~name:"t"
      [ job ~id:2 ~arrival:50. (); job ~id:1 ~arrival:10. (); job ~id:3 ~arrival:50. () ]
  in
  Alcotest.(check (list int)) "sorted by (arrival, id)" [ 1; 2; 3 ]
    (Array.to_list (Array.map (fun (j : Job_log.job) -> j.id) log.jobs))

let test_make_validates () =
  let invalid j msg =
    check_bool msg true
      (try
         ignore (Job_log.make ~name:"t" [ j ]);
         false
       with Invalid_argument _ -> true)
  in
  invalid (job ~size:0 ()) "zero size";
  invalid (job ~run_time:0. ()) "zero runtime";
  invalid (job ~arrival:(-1.) ()) "negative arrival";
  invalid { (job ()) with estimate = 0. } "zero estimate";
  check_bool "duplicate ids" true
    (try
       ignore (Job_log.make ~name:"t" [ job ~id:1 (); job ~id:1 ~arrival:5. () ]);
       false
     with Invalid_argument _ -> true)

let non_finite = [ ("nan", Float.nan); ("inf", Float.infinity); ("-inf", Float.neg_infinity) ]

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_make_rejects_non_finite () =
  List.iter
    (fun (label, x) ->
      check_bool ("arrival " ^ label) true (raises (fun () -> Job_log.make ~name:"t" [ job ~arrival:x () ]));
      check_bool ("run_time " ^ label) true
        (raises (fun () -> Job_log.make ~name:"t" [ job ~run_time:x ~estimate:100. () ]));
      check_bool ("estimate " ^ label) true
        (raises (fun () -> Job_log.make ~name:"t" [ job ~estimate:x () ])))
    non_finite

let test_span_and_work () =
  let log =
    Job_log.make ~name:"t"
      [ job ~id:1 ~arrival:100. ~run_time:50. ~size:4 (); job ~id:2 ~arrival:120. ~run_time:200. ~size:2 () ]
  in
  check_float "span" 220. (Job_log.span log);
  check_float "work" ((4. *. 50.) +. (2. *. 200.)) (Job_log.total_work log);
  check_float "offered" (600. /. (220. *. 10.)) (Job_log.offered_load log ~nodes:10)

let test_empty_log () =
  let log = Job_log.make ~name:"empty" [] in
  check_int "length" 0 (Job_log.length log);
  check_float "span" 0. (Job_log.span log);
  check_float "offered" 0. (Job_log.offered_load log ~nodes:10)

let test_scale_runtime () =
  let log = Job_log.make ~name:"t" [ job ~id:1 ~run_time:100. ~estimate:150. () ] in
  let scaled = Job_log.scale_runtime log ~c:1.2 in
  check_float "runtime scaled" 120. scaled.jobs.(0).run_time;
  check_float "estimate scaled" 180. scaled.jobs.(0).estimate;
  check_float "arrival unchanged" 0. scaled.jobs.(0).arrival;
  check_bool "invalid c" true
    (try
       ignore (Job_log.scale_runtime log ~c:0.);
       false
     with Invalid_argument _ -> true)

let test_filter_max_size () =
  let log =
    Job_log.make ~name:"t" [ job ~id:1 ~size:10 (); job ~id:2 ~arrival:1. ~size:200 () ]
  in
  let filtered = Job_log.filter_max_size log ~max_size:128 in
  check_int "one left" 1 (Job_log.length filtered);
  check_int "max size" 10 (Job_log.max_size filtered)

(* ------------------------------------------------------------------ *)
(* Swf *)

let sample_swf =
  "; header comment\n\
   1 0 5 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
   2 50 -1 60 -1 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
   3 80 0 -1 4 -1 -1 4 100 -1 0 -1 -1 -1 -1 -1 -1 -1\n\
   not a number at all\n"

let test_swf_parse () =
  match Swf.of_string ~name:"sample" sample_swf with
  | Error e -> Alcotest.fail e
  | Ok (log, report) ->
      check_int "parsed" 2 report.parsed;
      check_int "skipped (unknown runtime)" 1 report.skipped;
      Alcotest.(check (list int)) "malformed line numbers" [ 5 ] report.malformed;
      let j1 = log.jobs.(0) in
      check_int "id" 1 j1.id;
      check_float "arrival" 0. j1.arrival;
      check_float "runtime" 100. j1.run_time;
      check_int "size from field 5" 4 j1.size;
      check_float "estimate from field 9" 200. j1.estimate;
      let j2 = log.jobs.(1) in
      check_int "size falls back to field 8" 8 j2.size;
      check_float "estimate falls back to runtime" 60. j2.estimate

let test_swf_estimate_never_below_runtime () =
  let text = "1 0 0 500 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n" in
  match Swf.of_string ~name:"t" text with
  | Error e -> Alcotest.fail e
  | Ok (log, _) -> check_float "estimate raised to runtime" 500. log.jobs.(0).estimate

let test_swf_empty_rejected () =
  check_bool "no jobs is an error" true (Result.is_error (Swf.of_string ~name:"t" "; nothing\n"))

let test_swf_round_trip () =
  let log =
    Job_log.make ~name:"rt"
      [
        job ~id:1 ~arrival:10. ~size:4 ~run_time:100. ~estimate:150. ();
        job ~id:2 ~arrival:20. ~size:128 ~run_time:3600. ();
      ]
  in
  match Swf.of_string ~name:"rt" (Swf.to_string log) with
  | Error e -> Alcotest.fail e
  | Ok (parsed, report) ->
      check_int "all jobs back" (Job_log.length log) report.parsed;
      Array.iteri
        (fun i (j : Job_log.job) ->
          let orig = log.jobs.(i) in
          check_int "id" orig.id j.id;
          check_int "size" orig.size j.size;
          check_float "arrival" orig.arrival j.arrival;
          check_float "runtime" orig.run_time j.run_time;
          check_float "estimate" orig.estimate j.estimate)
        parsed.jobs

let test_swf_file_io () =
  let log = Job_log.make ~name:"io" [ job ~id:1 ~size:2 () ] in
  let path = Filename.temp_file "bgl_test" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Swf.save log path;
      match Swf.load path with
      | Ok (parsed, _) -> check_int "length" 1 (Job_log.length parsed)
      | Error e -> Alcotest.fail e)

let test_swf_load_missing () =
  check_bool "missing file is an error" true (Result.is_error (Swf.load "/nonexistent/x.swf"))

(* A NaN or infinite submit, run or requested time makes its line
   malformed: the good line around it still parses, and the bad line's
   number is reported. *)
let test_swf_non_finite_malformed () =
  let good = "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n" in
  List.iter
    (fun bad ->
      match Swf.of_string ~name:"t" (good ^ bad ^ "\n") with
      | Error e -> Alcotest.fail e
      | Ok (log, report) ->
          check_int ("one job beside " ^ bad) 1 (Job_log.length log);
          Alcotest.(check (list int)) ("line 2 malformed: " ^ bad) [ 2 ] report.malformed)
    [
      "2 inf -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 nan -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 -inf -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 10 -1 inf 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 10 -1 nan 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 10 -1 100 4 -1 -1 4 inf -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 10 -1 100 4 -1 -1 4 nan -1 1 -1 -1 -1 -1 -1 -1 -1";
    ]

(* ------------------------------------------------------------------ *)
(* Failure_log *)

let test_failure_log_sorting () =
  let log =
    Failure_log.make ~name:"t"
      [ { time = 50.; node = 3 }; { time = 10.; node = 7 }; { time = 50.; node = 1 } ]
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "sorted by (time, node)"
    [ (10., 7); (50., 1); (50., 3) ]
    (Array.to_list (Array.map (fun (e : Failure_log.event) -> (e.time, e.node)) log.events));
  check_float "span" 40. (Failure_log.span log);
  Alcotest.(check (list int)) "nodes" [ 1; 3; 7 ] (Failure_log.nodes log)

let test_failure_log_validation () =
  check_bool "negative time" true
    (try
       ignore (Failure_log.make ~name:"t" [ { time = -1.; node = 0 } ]);
       false
     with Invalid_argument _ -> true);
  check_bool "negative node" true
    (try
       ignore (Failure_log.make ~name:"t" [ { time = 1.; node = -2 } ]);
       false
     with Invalid_argument _ -> true)

let test_failure_log_rejects_non_finite () =
  List.iter
    (fun (label, time) ->
      check_bool ("make " ^ label) true
        (raises (fun () -> Failure_log.make ~name:"t" [ { time = 1.; node = 0 }; { time; node = 5 } ]));
      match Failure_log.of_string ~name:"t" (Printf.sprintf "1 0\n%s 5\n" label) with
      | Error msg ->
          Alcotest.(check string) ("parse " ^ label) "t: malformed failure event at line 2" msg
      | Ok log -> Alcotest.failf "%s parsed to %d events" label (Failure_log.length log))
    non_finite

let test_failure_truncate_and_scale () =
  let events = List.init 100 (fun i -> { Failure_log.time = float_of_int i; node = i mod 5 }) in
  let log = Failure_log.make ~name:"t" events in
  let truncated = Failure_log.truncate log ~keep:10 in
  check_int "truncated" 10 (Failure_log.length truncated);
  check_float "first kept" 0. truncated.events.(0).time;
  let sampled = Failure_log.scale_count log ~target:30 ~seed:5 in
  check_int "sampled" 30 (Failure_log.length sampled);
  (* subsample must be sorted and drawn from the original *)
  let times = Array.map (fun (e : Failure_log.event) -> e.time) sampled.events in
  check_bool "sorted" true (Array.for_all2 (fun a b -> a <= b) (Array.sub times 0 29) (Array.sub times 1 29));
  let same = Failure_log.scale_count log ~target:30 ~seed:5 in
  check_bool "deterministic" true (same.events = sampled.events);
  check_int "target >= length is identity" 100 (Failure_log.length (Failure_log.scale_count log ~target:500 ~seed:1))

let test_failure_shift () =
  let log = Failure_log.make ~name:"t" [ { time = 5.; node = 0 } ] in
  let shifted = Failure_log.shift log ~offset:10. in
  check_float "shifted" 15. shifted.events.(0).time

let test_failure_validate_nodes () =
  let log = Failure_log.make ~name:"t" [ { time = 1.; node = 127 } ] in
  check_bool "within" true (Result.is_ok (Failure_log.validate_nodes log ~volume:128));
  check_bool "outside" true (Result.is_error (Failure_log.validate_nodes log ~volume:100))

let test_failure_io_round_trip () =
  let log =
    Failure_log.make ~name:"t" [ { time = 1.5; node = 3 }; { time = 100.25; node = 77 } ]
  in
  match Failure_log.of_string ~name:"t" (Failure_log.to_string log) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      check_int "length" 2 (Failure_log.length parsed);
      check_float "time precision" 1.5 parsed.events.(0).time;
      check_int "node" 3 parsed.events.(0).node

(* Regression: to_string used %.3f, so events closer than a
   millisecond collapsed to the same timestamp across a save/load
   cycle, silently reordering ties. %.17g round-trips exactly. *)
let test_failure_io_precision () =
  let t0 = 1234.000123456789 in
  let log =
    Failure_log.make ~name:"t" [ { time = t0; node = 1 }; { time = t0 +. 1e-7; node = 2 } ]
  in
  match Failure_log.of_string ~name:"t" (Failure_log.to_string log) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      check_bool "bit-exact first" true (parsed.events.(0).time = t0);
      check_bool "bit-exact second" true (parsed.events.(1).time = t0 +. 1e-7);
      check_bool "distinct after round trip" true (parsed.events.(0).time < parsed.events.(1).time)

let test_failure_merge () =
  let a = Failure_log.make ~name:"a" [ { time = 10.; node = 1 }; { time = 30.; node = 2 } ] in
  let b = Failure_log.make ~name:"b" [ { time = 20.; node = 3 } ] in
  let merged = Failure_log.merge ~name:"m" [ a; b ] in
  check_int "all events" 3 (Failure_log.length merged);
  Alcotest.(check (list (pair (float 0.) int)))
    "interleaved in time order"
    [ (10., 1); (20., 3); (30., 2) ]
    (Array.to_list (Array.map (fun (e : Failure_log.event) -> (e.time, e.node)) merged.events));
  check_int "empty merge" 0 (Failure_log.length (Failure_log.merge ~name:"e" []))

let test_failure_parse_errors () =
  check_bool "malformed reported with line" true
    (match Failure_log.of_string ~name:"t" "# ok\n1.0 3\nbogus line here\n" with
    | Error msg -> String.length msg > 0
    | Ok _ -> false)

(* Regression: real failure logs are often tab-separated; of_string
   used to reject any line without a plain space. *)
let test_failure_tab_separated () =
  match Failure_log.of_string ~name:"t" "1.5\t3\n100.25 \t 77\n" with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      check_int "both events parsed" 2 (Failure_log.length parsed);
      check_int "tab-split node" 3 parsed.events.(0).node;
      check_int "mixed-whitespace node" 77 parsed.events.(1).node

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_trace"
    [
      ( "job_log",
        [
          tc "sorts" test_make_sorts;
          tc "validates" test_make_validates;
          tc "non-finite times rejected" test_make_rejects_non_finite;
          tc "span and work" test_span_and_work;
          tc "empty" test_empty_log;
          tc "scale_runtime" test_scale_runtime;
          tc "filter_max_size" test_filter_max_size;
        ] );
      ( "swf",
        [
          tc "parse fields" test_swf_parse;
          tc "estimate >= runtime" test_swf_estimate_never_below_runtime;
          tc "empty rejected" test_swf_empty_rejected;
          tc "round trip" test_swf_round_trip;
          tc "file io" test_swf_file_io;
          tc "missing file" test_swf_load_missing;
          tc "non-finite times malformed" test_swf_non_finite_malformed;
        ] );
      ( "failure_log",
        [
          tc "sorting" test_failure_log_sorting;
          tc "validation" test_failure_log_validation;
          tc "non-finite times rejected" test_failure_log_rejects_non_finite;
          tc "truncate and scale" test_failure_truncate_and_scale;
          tc "shift" test_failure_shift;
          tc "validate nodes" test_failure_validate_nodes;
          tc "io round trip" test_failure_io_round_trip;
          tc "io round trip precision" test_failure_io_precision;
          tc "merge" test_failure_merge;
          tc "parse errors" test_failure_parse_errors;
          tc "tab-separated fields" test_failure_tab_separated;
        ] );
    ]
