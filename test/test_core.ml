(* Tests for the experiment layer: scenarios, series rendering, and
   reduced-scale figure smoke runs with shape assertions. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

open Bgl_core

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_injected_failures_scaling () =
  let sc =
    Scenario.make ~n_jobs:1500 ~failures_paper:4000 ~failure_amplification:2.0
      ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious
  in
  (* 4000 * 1500 / 54041 * 2 = 222.1... *)
  check_int "scaled count" 222 (Scenario.injected_failures sc);
  let zero = Scenario.make ~failures_paper:0 ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious in
  check_int "zero stays zero" 0 (Scenario.injected_failures zero)

let test_scenario_default_failures () =
  let sc = Scenario.make ~profile:Bgl_workload.Profile.llnl Scenario.Fault_oblivious in
  check_int "profile default" Bgl_workload.Profile.llnl.paper_failures sc.failures_paper

let test_scenario_labels_distinguish () =
  let base = Scenario.make ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious in
  let variants =
    [
      Scenario.make ~profile:Bgl_workload.Profile.sdsc (Scenario.Balancing { confidence = 0.5 });
      Scenario.make ~load:1.2 ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious;
      Scenario.make ~seed:99 ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious;
      Scenario.make ~combine:`Max ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious;
      Scenario.make
        ~config:{ Bgl_sim.Config.default with backfill = false }
        ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious;
      { base with variant_tag = "uniform" };
    ]
  in
  List.iter
    (fun v -> check_bool "label differs" false (Scenario.label v = Scenario.label base))
    variants

let test_scenario_run_deterministic () =
  let sc =
    Scenario.make ~n_jobs:150 ~failures_paper:2000 ~profile:Bgl_workload.Profile.sdsc
      (Scenario.Balancing { confidence = 0.5 })
  in
  let a = (Scenario.run sc).report and b = (Scenario.run sc).report in
  check_bool "identical reports" true (a = b)

(* A predictor parameter outside [0, 1], NaN included, fails to
   parse instead of reaching the run. *)
let test_algo_parameter_checked () =
  List.iter
    (fun spec ->
      check_bool (spec ^ " rejected") true (Result.is_error (Scenario.algo_of_string spec)))
    [
      "balancing:nan";
      "balancing:1.5";
      "tie-breaking:nan";
      "tie-breaking:-0.1";
      "history:nan";
      "history:inf";
      "history:0";
      "history:1e308";
    ];
  check_bool "balancing:0.5 accepted" true
    (Scenario.algo_of_string "balancing:0.5" = Ok (Scenario.Balancing { confidence = 0.5 }));
  check_bool "history:24 accepted" true
    (Scenario.algo_of_string "history:24"
    = Ok (Scenario.Balancing_history { half_life = 86_400.; threshold = 0.5 }))

(* A job count or load-scale coefficient the workload generator would
   refuse is refused by the shared check first. *)
let test_run_parameters_checked () =
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "n=%d rejected" n) true
        (Result.is_error (Scenario.check_n_jobs n)))
    [ 0; -3 ];
  check_bool "n=1 accepted" true (Scenario.check_n_jobs 1 = Ok 1);
  List.iter
    (fun c ->
      check_bool (Printf.sprintf "c=%g rejected" c) true (Result.is_error (Scenario.check_load c)))
    [ 0.; -1.; Float.nan; Float.infinity; Float.neg_infinity ];
  check_bool "c=0.5 accepted" true (Scenario.check_load 0.5 = Ok 0.5)

(* A negative failure count is refused by the shared check and by
   bgl-sim's --failures flag at parse time, instead of reaching the
   failure generator as a negative event count (or, once scaled and
   rounded, running with no failures at all). *)
let test_failure_count_checked () =
  let parse = Cmdliner.Arg.conv_parser Bgl_core.Cli_flags.failures_conv in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "f=%d rejected" n) true
        (Result.is_error (Scenario.check_failures n));
      check_bool (Printf.sprintf "--failures=%d rejected" n) true
        (Result.is_error (parse (string_of_int n))))
    [ -1; -5; -5000 ];
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "f=%d accepted" n) true (Scenario.check_failures n = Ok n);
      check_bool (Printf.sprintf "--failures=%d accepted" n) true
        (parse (string_of_int n) = Ok n))
    [ 0; 5; 2000 ]

let test_scenario_runs_all_algos () =
  List.iter
    (fun algo ->
      let sc = Scenario.make ~n_jobs:120 ~profile:Bgl_workload.Profile.nasa algo in
      let o = Scenario.run sc in
      check_bool (Scenario.algo_label algo ^ " completes") true o.complete)
    [
      Scenario.First_fit;
      Scenario.Random_fit;
      Scenario.Fault_oblivious;
      Scenario.Balancing { confidence = 0.3 };
      Scenario.Tie_breaking { accuracy = 0.3 };
      Scenario.Safest;
      Scenario.Balancing_history { half_life = 86_400.; threshold = 0.5 };
      Scenario.Tie_breaking_history { half_life = 86_400.; threshold = 0.5 };
    ]

let test_zero_failures_means_no_kills () =
  let sc = Scenario.make ~n_jobs:200 ~failures_paper:0 ~profile:Bgl_workload.Profile.sdsc Scenario.Fault_oblivious in
  let o = Scenario.run sc in
  check_int "no failures" 0 o.report.failures_injected;
  check_int "no kills" 0 o.report.job_kills

(* [Scenario.run]'s optional inputs: supplying what it would draw
   itself, or only observing the run, must not change the report. *)
let small_scenario ?config algo =
  Scenario.make ~n_jobs:150 ~failures_paper:2000 ~seed:4 ?config ~profile:Bgl_workload.Profile.sdsc
    algo

let test_run_recorder_observes_only () =
  let sc = small_scenario (Scenario.Balancing { confidence = 0.5 }) in
  let recorder = Bgl_sim.Recorder.create () in
  let traced = (Scenario.run ~recorder sc).report in
  check_bool "recorder filled" true (Bgl_sim.Recorder.length recorder > 0);
  check_bool "same report" true (traced = (Scenario.run sc).report)

let test_run_explicit_inputs_match_run_on () =
  let sc = small_scenario (Scenario.Tie_breaking { accuracy = 0.7 }) in
  let other = { sc with seed = 99 } in
  let log = Scenario.workload other in
  let failures =
    Scenario.synthetic_failures ~log:(Bgl_trace.Job_log.scale_runtime log ~c:sc.load) other
  in
  check_bool "same report" true
    ((Scenario.run ~log ~failures sc).report = (Scenario.run_on ~log ~failures sc).report)

let test_run_own_failures_match_synthetic () =
  let sc = small_scenario (Scenario.Balancing { confidence = 0.5 }) in
  let failures =
    Scenario.synthetic_failures
      ~log:(Bgl_trace.Job_log.scale_runtime (Scenario.workload sc) ~c:sc.load)
      sc
  in
  let synthetic = (Scenario.run sc).report in
  check_bool "given failures" true ((Scenario.run ~failures sc).report = synthetic);
  check_bool "given log" true ((Scenario.run ~log:(Scenario.workload sc) sc).report = synthetic)

(* Adaptive checkpointing asks the engine's predictor whether a
   placement is doomed. With a perfect tie-breaking predictor some
   placements are, so the adaptive run must differ from periodic
   checkpointing at the safe interval — it cannot if the engine only
   ever sees the null predictor. *)
let test_adaptive_checkpointing_sees_predictor () =
  let run checkpoint =
    let config = { Bgl_sim.Config.default with checkpoint = Some checkpoint } in
    (Scenario.run
       (Scenario.make ~n_jobs:600 ~seed:5 ~config ~profile:Bgl_workload.Profile.sdsc
          (Scenario.Tie_breaking { accuracy = 1.0 })))
      .report
  in
  let periodic = run (Bgl_sim.Checkpoint.Periodic { interval = 14_400.; overhead = 60. }) in
  let adaptive =
    run
      (Bgl_sim.Checkpoint.Adaptive
         { risky_interval = 1800.; safe_interval = 14_400.; overhead = 60. })
  in
  check_bool "risky placements checkpoint more often" true
    (adaptive.checkpoints > periodic.checkpoints)

(* ------------------------------------------------------------------ *)
(* Series *)

let fig =
  Series.figure ~id:"t" ~title:"test" ~xlabel:"x" ~ylabel:"y" ~notes:[ "n1" ]
    [
      Series.series ~label:"a" [ (1., 10.); (2., 20.) ];
      Series.series ~label:"b" [ (2., 200.); (3., 300.) ];
    ]

let test_series_xs_union () = Alcotest.(check (list (float 1e-9))) "xs" [ 1.; 2.; 3. ] (Series.xs fig)

let test_series_value_at () =
  Alcotest.(check (option (float 1e-9))) "hit" (Some 20.) (Series.value_at (List.hd fig.series) 2.);
  Alcotest.(check (option (float 1e-9))) "miss" None (Series.value_at (List.hd fig.series) 3.)

let test_series_csv () =
  let csv = Series.to_csv fig in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "x,a,b" (List.hd lines);
  check_int "rows" 4 (List.length lines);
  check_bool "missing cell is empty" true (List.mem "1,10," lines);
  check_bool "both present" true (List.mem "2,20,200" lines)

let test_series_csv_escaping () =
  let f =
    Series.figure ~id:"e" ~title:"t" ~xlabel:"x,axis" ~ylabel:"y"
      [ Series.series ~label:"with \"quote\"" [ (1., 1.) ] ]
  in
  let header = List.hd (String.split_on_char '\n' (Series.to_csv f)) in
  Alcotest.(check string) "escaped" "\"x,axis\",\"with \"\"quote\"\"\"" header

let test_series_save_csv () =
  let dir = Filename.temp_file "bgl" "dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let path = Series.save_csv fig ~dir in
      check_bool "file exists" true (Sys.file_exists path);
      check_bool "named by id" true (Filename.basename path = "t.csv"))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp_chart_renders () =
  let text = Format.asprintf "%a" (Series.pp_chart ?height:None) fig in
  check_bool "range line" true (contains ~needle:"t: y in [10, 300]" text);
  check_bool "one row per series" true (contains ~needle:"a " text && contains ~needle:"b " text);
  (* the maximum point renders as the top glyph *)
  check_bool "top glyph present" true (contains ~needle:"@" text);
  Alcotest.(check string) "empty figure renders nothing" ""
    (Format.asprintf "%a" (Series.pp_chart ?height:None)
       (Series.figure ~id:"e" ~title:"" ~xlabel:"" ~ylabel:"" []))

let test_pp_figure_renders () =
  let text = Format.asprintf "%a" Series.pp_figure fig in
  check_bool "has id and title" true (contains ~needle:"=== t: test ===" text);
  check_bool "has the note" true (contains ~needle:"note: n1" text);
  check_bool "has series labels" true (contains ~needle:"a" text && contains ~needle:"b" text);
  check_bool "missing cells dashed" true (contains ~needle:"-" text)

(* ------------------------------------------------------------------ *)
(* Figures: tiny-scale smoke runs with shape assertions *)

let tiny = { Figures.n_jobs = 200; seeds = [ 11 ]; a_values = [ 0.; 0.5; 1. ]; fail_fracs = [ 0.; 0.5; 1. ]; dims = Bgl_torus.Dims.bgl }

let series_values (s : Series.series) = List.map snd s.points

(* The figures a producer renders at [tiny], swept on one domain. *)
let sweep_tiny f = Pool_helpers.sweep_figures ~domains:1 f tiny

let test_fig3_shape () =
  let fig = List.hd (sweep_tiny (fun r s -> [ Figures.fig3 r s ])) in
  check_int "three series" 3 (List.length fig.series);
  List.iter (fun (s : Series.series) -> check_int "three points" 3 (List.length s.points)) fig.series;
  (* all series share the zero-failure point *)
  let at_zero = List.map (fun s -> Series.value_at s 0.) fig.series in
  check_bool "same baseline" true
    (List.for_all (fun v -> v = List.hd at_zero) at_zero);
  (* slowdown under failures should not be below the zero-failure
     baseline for the no-prediction series *)
  let no_pred = List.hd fig.series in
  let base = Option.get (Series.value_at no_pred 0.) in
  let worst = List.fold_left max 0. (series_values no_pred) in
  check_bool "failures hurt" true (worst >= base)

let test_fig5_capacity_identity () =
  match sweep_tiny Figures.fig5 with
  | [ a; b ] ->
      List.iter
        (fun (f : Series.figure) ->
          let xs = Series.xs f in
          List.iter
            (fun x ->
              let total =
                List.fold_left
                  (fun acc s -> acc +. Option.value ~default:0. (Series.value_at s x))
                  0. f.series
              in
              check_float "util+unused+lost=1" 1. total)
            xs)
        [ a; b ]
  | _ -> Alcotest.fail "expected two sub-figures"

let test_fig6_structure () =
  let figs = sweep_tiny Figures.fig6 in
  check_int "three sub-figures" 3 (List.length figs);
  List.iter
    (fun (f : Series.figure) ->
      check_int "two loads" 2 (List.length f.series);
      check_bool "positive slowdowns" true
        (List.for_all (fun s -> List.for_all (fun v -> v >= 1.) (series_values s)) f.series))
    figs

let test_find () =
  let found catalogue id = Figures.find catalogue id <> None in
  check_bool "fig3" true (found Figures.catalogue "3");
  check_bool "fig10" true (found Figures.catalogue "fig10");
  check_bool "intro" true (found Figures.catalogue "intro");
  check_bool "case and blanks" true (found Figures.catalogue " FIG3 ");
  check_bool "unknown" true (not (found Figures.catalogue "fig99"));
  check_bool "ablation" true (found Ablations.catalogue "combine");
  check_bool "history ablation" true (found Ablations.catalogue "history");
  check_bool "policy zoo" true (found Ablations.catalogue "zoo");
  check_bool "ablation unknown" true (not (found Ablations.catalogue "nope"));
  check_bool "ablations are not figures" true (not (found Figures.catalogue "combine"))

(* Every name resolves to its own entry, and no name is listed twice
   across the three catalogues bgl-sweep resolves against. *)
let test_catalogue_names_resolve () =
  let all = Figures.catalogue @ Ablations.catalogue @ Baseline.catalogue in
  List.iter
    (fun (names, p) ->
      List.iter
        (fun name ->
          check_bool (name ^ " resolves to its entry") true
            (match Figures.find all name with Some q -> q == p | None -> false))
        names)
    all;
  let names = List.concat_map fst all in
  check_int "names unique" (List.length names) (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Timeline *)

let run_recorded () =
  let log =
    Bgl_trace.Job_log.make ~name:"tl"
      [
        { Bgl_trace.Job_log.id = 0; arrival = 0.; size = 128; run_time = 100.; estimate = 100. };
        { Bgl_trace.Job_log.id = 1; arrival = 0.; size = 64; run_time = 50.; estimate = 50. };
      ]
  in
  let failures =
    Bgl_trace.Failure_log.make ~name:"tl" [ { Bgl_trace.Failure_log.time = 40.; node = 0 } ]
  in
  let recorder = Bgl_sim.Recorder.create () in
  let _ =
    Bgl_sim.Engine.run ~recorder ~policy:Bgl_sched.Placement.first_fit ~log ~failures ()
  in
  recorder

let test_timeline_segments () =
  let recorder = run_recorded () in
  let segs = Timeline.segments recorder in
  (* job 0: killed tenancy [0,40) + restart [40,140); job 1 runs after. *)
  let job0 = List.filter (fun (s : Timeline.segment) -> s.job = 0) segs in
  check_int "job 0 has two tenancies" 2 (List.length job0);
  (match job0 with
  | [ first; second ] ->
      check_bool "first killed" true (match first.ending with Timeline.Killed 0 -> true | _ -> false);
      check_float "kill time" 40. first.ended;
      check_bool "second finished" true (second.ending = Timeline.Finished);
      check_float "finish" 140. second.ended
  | _ -> Alcotest.fail "unexpected segments");
  check_bool "segments sorted by start" true
    (let starts = List.map (fun (s : Timeline.segment) -> s.started) segs in
     List.sort compare starts = starts)

let test_timeline_render_and_util () =
  let recorder = run_recorded () in
  let segs = Timeline.segments recorder in
  let strip = Timeline.render segs ~volume:128 ~width:40 in
  check_int "strip width" 40 (String.length strip);
  check_bool "start fully busy" true (strip.[0] = '#');
  let util = Timeline.utilisation_of_segments segs ~volume:128 in
  check_bool "util in (0,1]" true (util > 0. && util <= 1.);
  Alcotest.(check string) "empty trace renders empty" "" (Timeline.render [] ~volume:128 ~width:10)

let test_timeline_busy_profile_conserves () =
  let recorder = run_recorded () in
  let segs = Timeline.segments recorder in
  (* job 1 only runs after job 0's restart completes, so the observed
     span reaches 190 s *)
  let span = List.fold_left (fun acc (s : Timeline.segment) -> Float.max acc s.ended) 0. segs in
  let profile = Timeline.busy_profile segs ~buckets:19 ~span in
  let total_node_seconds =
    List.fold_left
      (fun acc (s : Timeline.segment) ->
        acc +. (float_of_int (Bgl_torus.Box.volume s.box) *. (s.ended -. s.started)))
      0. segs
  in
  check_bool "profile conserves node-seconds" true
    (abs_float (Array.fold_left ( +. ) 0. profile -. total_node_seconds) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Baseline *)

let test_baseline_structure () =
  let figs = sweep_tiny (Figures.concat Baseline.catalogue) in
  check_int "three figures" 3 (List.length figs);
  List.iter
    (fun (f : Series.figure) -> check_bool (f.id ^ " non-empty") true (f.series <> []))
    figs;
  check_bool "find" true (Figures.find Baseline.catalogue "baseline-slowdown" <> None);
  check_bool "unknown" true (Figures.find Baseline.catalogue "nope" = None)

let test_baseline_backfill_wins () =
  let fig =
    List.hd
      (Pool_helpers.sweep_figures ~domains:1
         (fun r s -> [ Baseline.slowdown r s ])
         { tiny with n_jobs = 300 })
  in
  match fig.series with
  | [ fcfs; backfill; _migration ] ->
      (* On the SDSC point (x=1), plain FCFS must be strictly worse
         than EASY backfilling - Krevat's central result. *)
      let at s x = Option.get (Series.value_at s x) in
      check_bool "backfill beats fcfs on SDSC" true (at backfill 1. < at fcfs 1.)
  | _ -> Alcotest.fail "expected three variants"

(* ------------------------------------------------------------------ *)
(* Golden-file regression: the fig-3 sweep summary must render
   byte-identically to the committed fixture — swept on a 1-domain AND
   a 2-domain pool. This locks down both
   the incremental-finder engine results and the deterministic
   parallel decomposition in one place.

   After an INTENTIONAL result change, regenerate the fixture with:

     BGL_UPDATE_GOLDEN=$PWD/test/fixtures/fig3_golden.txt \
       dune exec test/test_core.exe -- test golden *)

let golden_scale =
  { Figures.n_jobs = 120; seeds = [ 11; 12 ]; a_values = [ 0.; 0.5; 1. ]; fail_fracs = [ 0.; 0.5; 1. ]; dims = Bgl_torus.Dims.bgl }

(* cwd is the build directory under [dune runtest] but the project
   root under [dune exec test/test_core.exe]; accept both. *)
let golden_path =
  let candidates = [ "fixtures/fig3_golden.txt"; "test/fixtures/fig3_golden.txt" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let render_fig3 ~domains =
  let figs = Pool_helpers.sweep_figures ~domains (fun r s -> [ Figures.fig3 r s ]) golden_scale in
  String.concat "" (List.map (Format.asprintf "%a@." Series.pp_figure) figs)

let read_golden () =
  match Sys.getenv_opt "BGL_UPDATE_GOLDEN" with
  | Some path ->
      let text = render_fig3 ~domains:1 in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      Printf.printf "golden fixture rewritten: %s\n%!" path;
      text
  | None -> In_channel.with_open_bin golden_path In_channel.input_all

let test_fig3_golden_sequential () =
  Alcotest.(check string) "sequential replay matches fixture" (read_golden ())
    (render_fig3 ~domains:1)

let test_fig3_golden_parallel () =
  Alcotest.(check string) "2-domain replay matches fixture" (read_golden ())
    (render_fig3 ~domains:2)

(* ------------------------------------------------------------------ *)
(* Candidate-cap ablation pin: the counted enumeration (Cache.select)
   must reproduce the engine's historical materialise-then-subsample
   byte-for-byte, so the cap ablation figure — which exercises every
   cap setting including the uncapped one — is pinned against fixtures
   generated before the counted path existed, at two grid sizes: 4x4x8
   (volume 128) and 8x8x16 (volume 1024).

   After an INTENTIONAL result change, regenerate with:

     BGL_UPDATE_GOLDEN=$PWD/test/fixtures \
       dune exec test/test_core.exe -- test ablation *)

let ablation_scales =
  [
    ("4x4x8", Bgl_torus.Dims.bgl, 80);
    ("8x8x16", Bgl_torus.Dims.make 8 8 16, 40);
  ]

let render_cap_ablation dims n_jobs =
  let scale =
    { Figures.n_jobs; seeds = [ 7 ]; a_values = []; fail_fracs = []; dims }
  in
  let cap r s = [ Ablations.candidate_cap r s ] in
  match Pool_helpers.sweep_figures ~domains:1 cap scale with
  | [ fig ] -> Format.asprintf "%a@." Series.pp_figure fig
  | _ -> Alcotest.fail "expected one figure"

let ablation_fixture_path name =
  let candidates = [ "fixtures/" ^ name; "test/fixtures/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_ablation_golden ~name ~render =
  match Sys.getenv_opt "BGL_UPDATE_GOLDEN" with
  | Some dir when Sys.is_directory dir ->
      let text = render () in
      let path = Filename.concat dir name in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      Printf.printf "golden fixture rewritten: %s\n%!" path;
      text
  | _ -> In_channel.with_open_bin (ablation_fixture_path name) In_channel.input_all

let test_cap_ablation_pinned (label, dims, n_jobs) () =
  let name = Printf.sprintf "ablate_candidates_%s_golden.txt" label in
  Alcotest.(check string)
    (label ^ " cap ablation matches pre-counted fixture")
    (read_ablation_golden ~name ~render:(fun () -> render_cap_ablation dims n_jobs))
    (render_cap_ablation dims n_jobs)

(* Baseline pin: the three Krevat-baseline figures at [tiny] scale.
   With the fig-3 and candidate-cap goldens this pins one producer of
   each catalogue. Regenerate like the ablation fixtures. *)
let test_baseline_golden () =
  let render () =
    String.concat ""
      (List.map (Format.asprintf "%a@." Series.pp_figure)
         (sweep_tiny (Figures.concat Baseline.catalogue)))
  in
  Alcotest.(check string) "baseline figures match fixture"
    (read_ablation_golden ~name:"baseline_tiny_golden.txt" ~render)
    (render ())

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "bgl_core"
    [
      ( "scenario",
        [
          tc "injected failures scaling" test_injected_failures_scaling;
          tc "default failures" test_scenario_default_failures;
          tc "labels distinguish" test_scenario_labels_distinguish;
          tc "deterministic" test_scenario_run_deterministic;
          tc "all algorithms run" test_scenario_runs_all_algos;
          tc "zero failures" test_zero_failures_means_no_kills;
          tc "recorder observes only" test_run_recorder_observes_only;
          tc "explicit inputs match run_on" test_run_explicit_inputs_match_run_on;
          tc "own failures match synthetic" test_run_own_failures_match_synthetic;
          tc "adaptive checkpointing sees predictor" test_adaptive_checkpointing_sees_predictor;
          tc "algo parameter checked" test_algo_parameter_checked;
          tc "run parameters checked" test_run_parameters_checked;
          tc "failure count checked" test_failure_count_checked;
        ] );
      ( "series",
        [
          tc "xs union" test_series_xs_union;
          tc "value_at" test_series_value_at;
          tc "csv" test_series_csv;
          tc "csv escaping" test_series_csv_escaping;
          tc "save csv" test_series_save_csv;
          tc "pp renders" test_pp_figure_renders;
          tc "chart renders" test_pp_chart_renders;
        ] );
      ( "figures",
        [
          slow "fig3 shape" test_fig3_shape;
          slow "fig5 capacity identity" test_fig5_capacity_identity;
          slow "fig6 structure" test_fig6_structure;
          tc "find" test_find;
          tc "catalogue names resolve" test_catalogue_names_resolve;
        ] );
      ( "timeline",
        [
          tc "segments" test_timeline_segments;
          tc "render and util" test_timeline_render_and_util;
          tc "busy profile conserves" test_timeline_busy_profile_conserves;
        ] );
      ( "baseline",
        [
          slow "structure" test_baseline_structure;
          slow "backfill wins" test_baseline_backfill_wins;
          slow "golden tiny" test_baseline_golden;
        ] );
      ( "golden",
        [
          slow "fig3 sequential" test_fig3_golden_sequential;
          slow "fig3 two domains" test_fig3_golden_parallel;
        ] );
      ( "ablation",
        List.map
          (fun ((label, _, _) as size) ->
            slow ("candidate cap pinned " ^ label) (test_cap_ablation_pinned size))
          ablation_scales );
    ]
