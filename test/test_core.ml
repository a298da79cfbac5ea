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

let test_fig3_shape () =
  Figures.clear_cache ();
  let fig = Figures.fig3 tiny in
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
  Figures.clear_cache ();
  match Figures.fig5 tiny with
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
  Figures.clear_cache ();
  let figs = Figures.fig6 tiny in
  check_int "three sub-figures" 3 (List.length figs);
  List.iter
    (fun (f : Series.figure) ->
      check_int "two loads" 2 (List.length f.series);
      check_bool "positive slowdowns" true
        (List.for_all (fun s -> List.for_all (fun v -> v >= 1.) (series_values s)) f.series))
    figs

let test_by_id_lookup () =
  check_bool "fig3" true (Figures.by_id "3" <> None);
  check_bool "fig10" true (Figures.by_id "fig10" <> None);
  check_bool "intro" true (Figures.by_id "intro" <> None);
  check_bool "unknown" true (Figures.by_id "fig99" = None);
  check_bool "ablation" true (Ablations.by_id "combine" <> None);
  check_bool "history ablation" true (Ablations.by_id "history" <> None);
  check_bool "policy zoo" true (Ablations.by_id "zoo" <> None);
  check_bool "ablation unknown" true (Ablations.by_id "nope" = None)

let test_producers_cover_by_id () =
  List.iter
    (fun (name, _) -> check_bool (name ^ " resolvable") true (Figures.by_id name <> None))
    Figures.producers

let test_cache_reuse () =
  Figures.clear_cache ();
  let sc = Scenario.make ~n_jobs:100 ~profile:Bgl_workload.Profile.nasa Scenario.Fault_oblivious in
  let a = Figures.cached_report sc in
  let b = Figures.cached_report sc in
  check_bool "same physical report (cached)" true (a == b)

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
  Figures.clear_cache ();
  let figs = Baseline.all tiny in
  check_int "three figures" 3 (List.length figs);
  List.iter
    (fun (f : Series.figure) -> check_bool (f.id ^ " non-empty") true (f.series <> []))
    figs;
  check_bool "by_id" true (Baseline.by_id "baseline-slowdown" <> None);
  check_bool "unknown" true (Baseline.by_id "nope" = None)

let test_baseline_backfill_wins () =
  Figures.clear_cache ();
  let fig = Baseline.slowdown { tiny with n_jobs = 300 } in
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
  let figs = Pool_helpers.sweep_figures ~domains (fun s -> [ Figures.fig3 s ]) golden_scale in
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
   generated before the counted path existed. Two grid sizes cover both
   finder representations: 4x4x8 (volume 128, direct scan) and 8x8x16
   (volume 1024, free-row mask scan).

   After an INTENTIONAL result change, regenerate with:

     BGL_UPDATE_GOLDEN=$PWD/test/fixtures \
       dune exec test/test_core.exe -- test ablation *)

let ablation_scales =
  [
    ("4x4x8", Bgl_torus.Dims.bgl, 80);
    ("8x8x16", Bgl_torus.Dims.make 8 8 16, 40);
  ]

let render_cap_ablation dims n_jobs =
  Figures.clear_cache ();
  let scale =
    { Figures.n_jobs; seeds = [ 7 ]; a_values = []; fail_fracs = []; dims }
  in
  let text = Format.asprintf "%a@." Series.pp_figure (Ablations.candidate_cap scale) in
  Figures.clear_cache ();
  text

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
          tc "by_id" test_by_id_lookup;
          tc "producers cover by_id" test_producers_cover_by_id;
          tc "cache reuse" test_cache_reuse;
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
