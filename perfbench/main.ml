(* The repository benchmark.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   W is paper-balancing, full-machine or served. With --trace 0 it
   prints the end-to-end metrics, with --trace 1 the per-layer ones;
   the last line of stdout is the JSON result. perfbench/README.md
   documents every workload and metric. *)

let end_to_end = [ ("setup_s", "s"); ("run_s", "s"); ("peak_rss_mb", "MB"); ("ok_share", "ratio") ]

let per_layer =
  [
    ("workload.generate_s", "s");
    ("failure.generate_s", "s");
    ("predict.index_s", "s");
    ("partition.catalogue_s", "s");
    ("torus.create_s", "s");
    ("sim.run_s", "s");
    ("sim.self_s", "s");
    ("sim.events", "count");
    ("sim.job_starts", "count");
    ("sim.job_kills", "count");
    ("sched.choose_calls", "count");
    ("sched.choose_s", "s");
    ("sched.choose_us", "us");
    ("sched.candidates_mean", "count");
    ("sched.declined", "count");
    ("predict.node_prob_calls", "count");
    ("predict.node_prob_s", "s");
    ("mfp.volume_us", "us");
    ("mfp.volume_after_us", "us");
    ("finder.select_us", "us");
    ("finder.counted_queries", "count");
    ("finder.counted_skips", "count");
    ("finder.cache_hit_ratio", "ratio");
    ("prefix.sync_us", "us");
    ("prefix.incremental_updates", "count");
    ("prefix.full_rebuilds", "count");
    ("torus.mutate_us", "us");
    ("serve.req_per_s", "1/s");
    ("serve.cold_p90_ms", "ms");
    ("serve.warm_p50_ms", "ms");
    ("serve.warm_p90_ms", "ms");
    ("serve.ping_p50_ms", "ms");
    ("serve.memo_hit_ratio", "ratio");
    ("serve.store_reads", "count");
    ("serve.rejected", "count");
    ("serve.errors", "count");
    ("serve.cold_overhead_ms", "ms");
    ("store.bytes_per_cold", "bytes");
    ("trace.overhead", "ratio");
  ]

let sim_specs = [ Sim_bench.paper_balancing; Sim_bench.full_machine ]

(* Cold-process set-ups measured per run; the median is reported. *)
let setup_children = 7

let setup_child_s (spec : Sim_bench.spec) ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--setup-child"; "--workload"; spec.name; "--seed"; string_of_int seed |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "set-up child failed"

let setup_total phases = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases

let measure_sim (spec : Sim_bench.spec) ~seed ~seconds ~trace =
  if trace then begin
    (* First thing in the process, so the shape catalogue is cold. *)
    let phases = Sim_bench.setup spec ~seed in
    let layers = Sim_bench.trace spec ~seed ~setup_phases:phases in
    { Util.correct = layers.failed = 0; attempted = layers.attempted; failed = layers.failed; values = layers.metrics }
  end
  else begin
    let calibration = Util.calibration () in
    let setups =
      List.init setup_children (fun _ ->
          Util.calibrate calibration;
          setup_child_s spec ~seed)
    in
    let m = Sim_bench.measure spec ~seed ~seconds calibration in
    let setup_s = Util.median setups in
    Util.log "%s: as measured setup_s=%.6g run_s=%.6g; calibration kernel median %.6g s over %d samples"
      spec.name setup_s m.run_s (Util.median calibration.kernel_s) (List.length calibration.kernel_s);
    {
      Util.correct = m.failed = 0;
      attempted = m.attempted;
      failed = m.failed;
      values =
        [
          ("setup_s", Util.rescale calibration setup_s);
          ("run_s", Util.rescale calibration m.run_s);
          ("peak_rss_mb", Util.peak_rss_mb "self");
          ("ok_share", float_of_int (m.attempted - m.failed) /. float_of_int m.attempted);
        ];
    }
  end

let print_result trace result =
  print_endline (Util.result_to_json (if trace then per_layer else end_to_end) result)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_child = ref false in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  let usage_error msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-balancing | full-machine | served");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--setup-child", Arg.Set setup_child, " time one set-up and print its seconds");
    ]
    (fun arg -> usage_error ("unexpected argument " ^ arg))
    usage;
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if !seconds <= 0. then usage_error "--seconds must be positive";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let spec = List.find_opt (fun (s : Sim_bench.spec) -> s.name = !workload) sim_specs in
  match spec with
  | Some spec when !setup_child -> Printf.printf "%.17g\n" (setup_total (Sim_bench.setup spec ~seed))
  | Some spec -> print_result trace (measure_sim spec ~seed ~seconds ~trace)
  | None when !workload = "served" -> print_result trace (Served_bench.measure ~seed ~seconds ~trace)
  | None -> usage_error ("unknown workload " ^ !workload)
