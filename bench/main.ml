(* Benchmark & reproduction harness.

   With no arguments this regenerates every figure of the paper at the
   quick scale, runs the ablation suite, and runs the Bechamel
   micro-benchmarks of the partition finders (the paper's Appendix 9
   comparison). Sub-commands restrict the run:

     main.exe figs [--full]       all paper figures
     main.exe fig <id> [--full]   one paper figure (3..10, intro)
     main.exe ablate [<id>]       ablation suite (or one ablation)
     main.exe micro               Bechamel micro-benchmarks only
     main.exe scale               machine-size scaling group only
     main.exe all [--full]        everything (default)

   CSVs are written to ./results/. *)

let results_dir = "results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755

let emit_figure fig =
  ensure_results_dir ();
  Format.printf "%a@." Bgl_core.Series.pp_figure fig;
  let path = Bgl_core.Series.save_csv fig ~dir:results_dir in
  Format.printf "  (csv: %s)@.@." path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the partition-finder lineage *)

open Bgl_torus
open Bgl_partition

let busy_grid_at dims ~seed ~fraction =
  let rng = Bgl_stats.Rng.create ~seed in
  let grid = Grid.create dims in
  for node = 0 to Dims.volume dims - 1 do
    if Bgl_stats.Rng.unit_float rng < fraction then Grid.occupy_node grid node ~owner:(node mod 9)
  done;
  grid

let busy_grid ~seed ~fraction = busy_grid_at Dims.bgl ~seed ~fraction

(* The production finder on a fresh cache: the summed-area table is
   built inside the timed call and no memo entry can answer it. *)
let fresh_find grid ~volume = Finder.Cache.find (Finder.Cache.create grid) ~volume

let finder_tests () =
  let grids = [ ("empty", busy_grid ~seed:1 ~fraction:0.); ("half", busy_grid ~seed:1 ~fraction:0.5) ] in
  let volumes = [ 8; 32 ] in
  let tests =
    List.concat_map
      (fun (gname, grid) ->
        List.concat_map
          (fun volume ->
            let name = Printf.sprintf "find/%s/v=%d/%s" gname volume in
            Bechamel.Test.make ~name:(name "cache")
              (Bechamel.Staged.stage (fun () -> ignore (fresh_find grid ~volume)))
            :: List.map
                 (fun algo ->
                   Bechamel.Test.make
                     ~name:(name (Finder.Reference.name algo))
                     (Bechamel.Staged.stage (fun () ->
                          ignore (Finder.Reference.find algo grid ~volume))))
                 Finder.Reference.all)
          volumes)
      grids
  in
  let mfp_tests =
    List.map
      (fun (gname, grid) ->
        Bechamel.Test.make
          ~name:(Printf.sprintf "mfp/%s" gname)
          (Bechamel.Staged.stage (fun () -> ignore (Mfp.volume grid))))
      grids
  in
  let half = busy_grid ~seed:2 ~fraction:0.5 in
  let prefix_tests =
    [
      Bechamel.Test.make ~name:"prefix/build"
        (Bechamel.Staged.stage (fun () -> ignore (Prefix.build half)));
    ]
  in
  Bechamel.Test.make_grouped ~name:"partition" (tests @ mfp_tests @ prefix_tests)

(* The incremental-occupancy layer vs the rebuild-per-event baseline:
   each staged run applies a burst of single-node occupancy events to a
   half-busy grid and re-queries the finder after each one, the way a
   scheduling pass interleaves placements and candidate queries. The
   toggles flip the same nodes back and forth, so grid state is stable
   across Bechamel iterations. *)
let finder_incremental_tests () =
  let toggle grid node =
    match Grid.owner grid node with
    | None -> Grid.occupy_node grid node ~owner:7
    | Some owner -> Grid.vacate_node grid node ~owner
  in
  let nodes = List.init 16 (fun i -> (i * 37) mod Dims.volume Dims.bgl) in
  let rebuild =
    let grid = busy_grid ~seed:4 ~fraction:0.5 in
    Bechamel.Staged.stage (fun () ->
        List.iter
          (fun node ->
            toggle grid node;
            ignore (fresh_find grid ~volume:32))
          nodes)
  in
  let incremental =
    let grid = busy_grid ~seed:4 ~fraction:0.5 in
    let cache = Finder.Cache.create grid in
    Bechamel.Staged.stage (fun () ->
        List.iter
          (fun node ->
            toggle grid node;
            Finder.Cache.note_node cache node;
            ignore (Finder.Cache.find cache ~volume:32))
          nodes)
  in
  let requery =
    let grid = busy_grid ~seed:4 ~fraction:0.5 in
    let cache = Finder.Cache.create grid in
    ignore (Finder.Cache.find cache ~volume:32);
    Bechamel.Staged.stage (fun () -> ignore (Finder.Cache.find cache ~volume:32))
  in
  let prefix_full =
    let grid = busy_grid ~seed:4 ~fraction:0.5 in
    Bechamel.Staged.stage (fun () ->
        List.iter
          (fun node ->
            toggle grid node;
            ignore (Prefix.build grid))
          nodes)
  in
  let prefix_incr =
    let grid = busy_grid ~seed:4 ~fraction:0.5 in
    let table = Prefix.track grid in
    Bechamel.Staged.stage (fun () ->
        List.iter
          (fun node ->
            toggle grid node;
            Prefix.note_node table node;
            Prefix.sync table)
          nodes)
  in
  Bechamel.Test.make_grouped ~name:"finder-incremental"
    [
      Bechamel.Test.make ~name:"events-16/rebuild-per-query" rebuild;
      Bechamel.Test.make ~name:"events-16/incremental-cache" incremental;
      Bechamel.Test.make ~name:"requery/memo-hit" requery;
      Bechamel.Test.make ~name:"prefix-16-events/full-build" prefix_full;
      Bechamel.Test.make ~name:"prefix-16-events/incremental-sync" prefix_incr;
    ]

(* Machine-size scaling: the same operations at the paper's 4x4x8
   supernode view up to the full 64x32x32 node torus (512x the
   volume). The claim under test is that per-event costs — a node
   mutation with its summary upkeep, and an exists-style probe that
   the hierarchical summary rejects — stay (near-)flat as the machine
   grows, while the full prefix-table build shows the O(volume) cost
   the summary gate avoids paying per probe. 90% occupancy makes a
   quarter-machine partition geometrically impossible, so the
   infeasible probe exercises the reject path the scheduler hits
   whenever the queue holds jobs bigger than any surviving hole. *)
let torus_scale_tests () =
  let sizes =
    [
      ("4x4x8", Dims.bgl);
      ("8x8x16", Dims.make 8 8 16);
      ("16x16x32", Dims.make 16 16 32);
      ("64x32x32", Dims.bgl_full);
    ]
  in
  let tests =
    List.concat_map
      (fun (name, d) ->
        let volume = Dims.volume d in
        let grid = busy_grid_at d ~seed:5 ~fraction:0.9 in
        let nodes = List.init 64 (fun i -> i * 131 mod volume) in
        let toggle node =
          match Grid.owner grid node with
          | None -> Grid.occupy_node grid node ~owner:7
          | Some owner -> Grid.vacate_node grid node ~owner
        in
        let cache = Finder.Cache.create grid in
        ignore (Finder.Cache.exists_free cache ~volume:2);
        [
          Bechamel.Test.make
            ~name:(Printf.sprintf "mutate-64/%s" name)
            (Bechamel.Staged.stage (fun () -> List.iter toggle nodes));
          Bechamel.Test.make
            ~name:(Printf.sprintf "probe-infeasible/%s" name)
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Finder.Cache.exists_free (Finder.Cache.create grid)
                      ~volume:(max 8 (volume / 16)))));
          Bechamel.Test.make
            ~name:(Printf.sprintf "probe-feasible-cached/%s" name)
            (Bechamel.Staged.stage (fun () -> ignore (Finder.Cache.exists_free cache ~volume:2)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "prefix-build/%s" name)
            (Bechamel.Staged.stage (fun () -> ignore (Prefix.build grid)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "grid-copy/%s" name)
            (Bechamel.Staged.stage (fun () -> ignore (Grid.copy grid)));
        ])
      sizes
  in
  Bechamel.Test.make_grouped ~name:"torus-scale" tests

(* Counted enumeration vs the materialising path it replaced: capped
   candidate queries on near-empty machines — the regime where the
   free-box population is maximal and the old path had to materialise
   all of it to subsample 24. Both rows run on a fresh cache, so each
   pays one table build and neither is a memo hit. *)
let finder_counted_tests () =
  let sizes =
    [ ("4x4x8", Dims.bgl); ("8x8x16", Dims.make 8 8 16); ("64x32x32", Dims.bgl_full) ]
  in
  let cap_list cap boxes =
    let n = List.length boxes in
    if n <= cap then boxes
    else
      let arr = Array.of_list boxes in
      List.init cap (fun i -> arr.(i * n / cap))
  in
  let tests =
    List.concat_map
      (fun (name, d) ->
        (* One job-like box holding an eighth of the machine: the
           scheduler's steady near-empty state. Clustered occupancy is
           the regime that matters — scattered single nodes would
           contaminate every row and defeat the ribbon fast path,
           degrading counted to materialise-cost parity. *)
        let grid = Grid.create d in
        Grid.occupy grid
          (Box.make (Coord.make 0 0 0)
             (Shape.make (max 1 (d.nx / 2)) (max 1 (d.ny / 2)) (max 1 (d.nz / 2))))
          ~owner:1;
        let volume = max 8 (Dims.volume d / 256) in
        [
          Bechamel.Test.make
            ~name:(Printf.sprintf "select-24/%s" name)
            (Bechamel.Staged.stage (fun () ->
                 ignore (Finder.Cache.select (Finder.Cache.create grid) ~volume ~cap:24)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "materialise-cap-24/%s" name)
            (Bechamel.Staged.stage (fun () -> ignore (cap_list 24 (fresh_find grid ~volume))));
        ])
      sizes
  in
  Bechamel.Test.make_grouped ~name:"finder-counted" tests

let event_queue_tests () =
  Bechamel.Test.make_grouped ~name:"engine"
    [
      Bechamel.Test.make ~name:"event-queue/push-pop-1k"
        (Bechamel.Staged.stage (fun () ->
             let q = Bgl_sim.Event_queue.create () in
             for i = 0 to 999 do
               Bgl_sim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) i
             done;
             while not (Bgl_sim.Event_queue.is_empty q) do
               ignore (Bgl_sim.Event_queue.pop q)
             done));
    ]

(* Observability overhead: the acceptance bar is that instrumented hot
   paths cost (essentially) nothing while spans are disabled and the
   registry is the noop one. Each staged closure pins the global state
   it needs, so groups can run in any order. *)
let obs_tests () =
  let half = busy_grid ~seed:2 ~fraction:0.5 in
  let finder_with_spans on =
    Bechamel.Staged.stage (fun () ->
        Bgl_obs.Span.set_enabled on;
        ignore (fresh_find half ~volume:32);
        Bgl_obs.Span.set_enabled false)
  in
  let queue_with_spans on =
    Bechamel.Staged.stage (fun () ->
        Bgl_obs.Span.set_enabled on;
        let q = Bgl_sim.Event_queue.create () in
        for i = 0 to 999 do
          Bgl_sim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) i
        done;
        while not (Bgl_sim.Event_queue.is_empty q) do
          ignore (Bgl_sim.Event_queue.pop q)
        done;
        Bgl_obs.Span.set_enabled false)
  in
  let noop_counter = Bgl_obs.Registry.counter Bgl_obs.Registry.noop "bench_total" in
  let live_reg = Bgl_obs.Registry.create () in
  let live_counter = Bgl_obs.Registry.counter live_reg "bench_total" in
  let inc_1k c =
    Bechamel.Staged.stage (fun () ->
        for _ = 1 to 1000 do
          Bgl_obs.Registry.inc c
        done)
  in
  Bechamel.Test.make_grouped ~name:"obs"
    [
      Bechamel.Test.make ~name:"find/half/v=32/cache/spans-off" (finder_with_spans false);
      Bechamel.Test.make ~name:"find/half/v=32/cache/spans-on" (finder_with_spans true);
      Bechamel.Test.make ~name:"event-queue/push-pop-1k/spans-off" (queue_with_spans false);
      Bechamel.Test.make ~name:"event-queue/push-pop-1k/spans-on" (queue_with_spans true);
      Bechamel.Test.make ~name:"counter/inc-1k/noop" (inc_1k noop_counter);
      Bechamel.Test.make ~name:"counter/inc-1k/live" (inc_1k live_counter);
    ]

(* Domain-pool overhead/scaling on a CPU-bound kernel. On a single-core
   host d>1 only measures the spawn+join cost; on a multi-core one it
   shows the scaling headroom of parallel sweeps. *)
let parallel_tests () =
  let half = busy_grid ~seed:3 ~fraction:0.5 in
  let items = Array.make 16 half in
  let map_d d =
    Bechamel.Test.make
      ~name:(Printf.sprintf "pool/map-mfp-16/d=%d" d)
      (Bechamel.Staged.stage (fun () ->
           ignore (Bgl_parallel.Pool.map ~domains:d (fun g -> Mfp.volume g) items)))
  in
  Bechamel.Test.make_grouped ~name:"parallel" [ map_d 1; map_d 2; map_d 4 ]

(* Service-layer kernels: the fixed per-request costs bgl-served pays
   before any simulation runs — frame codec round-trip over a
   socketpair, request parse + fingerprint, admission handoff, memo
   probe. End-to-end daemon latency and throughput under real load
   are scripted, not staged (EXPERIMENTS.md "Service"). *)
let serve_tests () =
  let module Serve = Bgl_serve in
  let wr, rd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Serve.Frame.reader rd in
  let frame_roundtrip payload =
    Bechamel.Staged.stage (fun () ->
        Serve.Frame.write wr payload;
        match Serve.Frame.read reader with
        | Ok (Some _) -> ()
        | Ok None | Error _ -> assert false)
  in
  let blob = Printf.sprintf {|{"blob":%S}|} (String.make 4096 'x') in
  let parse_fingerprint payload =
    Bechamel.Staged.stage (fun () ->
        match Serve.Protocol.parse payload with
        | Ok req -> ignore (Serve.Protocol.fingerprint req)
        | Error _ -> assert false)
  in
  let sim_req = {|{"op":"sim","algo":"mfp","jobs":500,"seed":11,"failures":2.0}|} in
  let adm = Serve.Admission.create ~capacity:64 in
  let memo = Serve.Memo.create ~capacity:64 in
  Serve.Memo.add memo "hot" blob;
  Bechamel.Test.make_grouped ~name:"serve"
    [
      Bechamel.Test.make ~name:"frame/roundtrip-ping" (frame_roundtrip {|{"op":"ping"}|});
      Bechamel.Test.make ~name:"frame/roundtrip-4k" (frame_roundtrip blob);
      Bechamel.Test.make ~name:"protocol/parse+fingerprint-sim" (parse_fingerprint sim_req);
      Bechamel.Test.make ~name:"admission/submit-take-16"
        (Bechamel.Staged.stage (fun () ->
             for i = 0 to 15 do
               ignore (Serve.Admission.submit adm i)
             done;
             for _ = 0 to 15 do
               ignore (Serve.Admission.take adm)
             done));
      Bechamel.Test.make ~name:"memo/find-hit"
        (Bechamel.Staged.stage (fun () -> ignore (Serve.Memo.find memo "hot")));
    ]

let run_micro_groups ?cfg ~banner groups =
  Format.printf "=== %s ===@." banner;
  let tests = Bechamel.Test.make_grouped ~name:"bgl" groups in
  let cfg =
    match cfg with
    | Some c -> c
    | None -> Bechamel.Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5) ()
  in
  let raw = Bechamel.Benchmark.all cfg [ Bechamel.Toolkit.Instance.monotonic_clock ] tests in
  let ols = Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |] in
  let results = Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name res acc ->
        match Bechamel.Analyze.OLS.estimates res with
        | Some (ns :: _) -> (name, ns) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, ns) -> Format.printf "%-44s %12.1f ns/run@." name ns) rows;
  Format.printf "@."

let run_micro () =
  run_micro_groups
    ~banner:"micro: partition finders (Appendix 9 lineage), engine kernels, obs overhead"
    [
      finder_tests ();
      finder_incremental_tests ();
      event_queue_tests ();
      obs_tests ();
      parallel_tests ();
      serve_tests ();
    ]

(* The scaling group keeps tens of megabytes of grid state live, so
   bechamel's default per-sample GC stabilisation (a compaction each
   time, not charged against the quota) would dominate the wall clock;
   run it unstabilised with a smaller sample budget instead. *)
let run_scale_micro () =
  run_micro_groups
    ~cfg:(Bechamel.Benchmark.cfg ~stabilize:false ~limit:300 ~quota:(Bechamel.Time.second 0.25) ())
    ~banner:"micro: machine-size scaling (4x4x8 .. 64x32x32)"
    [ torus_scale_tests (); finder_counted_tests () ]

(* ------------------------------------------------------------------ *)

let scale_of_args args =
  if List.mem "--full" args then Bgl_core.Figures.full else Bgl_core.Figures.quick

(* [--jobs N] must come out of the argument list before the positional
   split below, or its value would be read as a sub-command. *)
let parse_jobs args =
  let rec go acc = function
    | [] -> (1, List.rev acc)
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some 0 -> (Bgl_parallel.Pool.recommended (), List.rev_append acc rest)
        | Some d when d > 0 -> (d, List.rev_append acc rest)
        | Some _ | None ->
            Format.eprintf "--jobs expects a non-negative integer (got %S)@." n;
            exit 1)
    | [ "--jobs" ] ->
        Format.eprintf "--jobs expects a value@.";
        exit 1
    | a :: rest -> go (a :: acc) rest
  in
  go [] args

let run_figs ~domains scale =
  Format.printf "=== paper figures (%d jobs/run, %d seeds) ===@.@." scale.Bgl_core.Figures.n_jobs
    (List.length scale.Bgl_core.Figures.seeds);
  List.iter
    (fun (_, f) -> List.iter emit_figure (Bgl_core.Figures.produce ~domains f scale))
    Bgl_core.Figures.producers

let run_one_fig ~domains scale id =
  match Bgl_core.Figures.by_id id with
  | Some f -> List.iter emit_figure (Bgl_core.Figures.produce ~domains f scale)
  | None ->
      Format.eprintf "unknown figure %S (try 3..10 or intro)@." id;
      exit 1

let run_baseline ~domains scale =
  List.iter emit_figure
    (Bgl_core.Figures.produce ~domains (fun scale -> Bgl_core.Baseline.all scale) scale)

let run_ablations ~domains scale = function
  | None ->
      List.iter emit_figure
        (Bgl_core.Figures.produce ~domains (fun scale -> Bgl_core.Ablations.all scale) scale)
  | Some id -> (
      match Bgl_core.Ablations.by_id id with
      | Some f ->
          List.iter emit_figure
            (Bgl_core.Figures.produce ~domains (fun scale -> [ f scale ]) scale)
      | None ->
          Format.eprintf "unknown ablation %S@." id;
          exit 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Unix.gettimeofday () in
  let domains, args = parse_jobs args in
  let positional =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  (match positional with
  | [] | [ "all" ] ->
      run_micro ();
      run_figs ~domains (scale_of_args args);
      run_baseline ~domains (scale_of_args args);
      run_ablations ~domains (scale_of_args args) None
  | [ "micro" ] -> run_micro ()
  | [ "scale" ] -> run_scale_micro ()
  | [ "serve" ] ->
      run_micro_groups ~banner:"micro: bgl-served request-path kernels" [ serve_tests () ]
  | [ "figs" ] -> run_figs ~domains (scale_of_args args)
  | [ "fig"; id ] -> run_one_fig ~domains (scale_of_args args) id
  | [ "ablate" ] -> run_ablations ~domains (scale_of_args args) None
  | [ "ablate"; id ] -> run_ablations ~domains (scale_of_args args) (Some id)
  | [ "baseline" ] -> run_baseline ~domains (scale_of_args args)
  | _ ->
      Format.eprintf
        "usage: main.exe [all|micro|scale|serve|figs|fig <id>|ablate [<id>]|baseline] [--full] [--jobs \
         N]@.";
      exit 1);
  Format.printf "total wall time: %.1f s@." (Unix.gettimeofday () -. t0)
