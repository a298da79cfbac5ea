(* Bechamel micro-benchmark harness. Sub-commands pick the groups:

     main.exe [micro]   partition finders (the paper's Appendix 9
                        lineage), engine kernels, obs overhead, pool,
                        service kernels (default)
     main.exe scale     machine-size scaling group, what-if
                        queries and the MFP probe path
     main.exe serve     bgl-served request-path kernels only

   The paper's figures, ablations and baseline study are regenerated
   by bgl-sweep (e.g. [bgl-sweep 3], [bgl-sweep ablate]). *)

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

(* The production finder on a fresh cache: the free-row masks are
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

(* A long-lived cache vs a fresh cache per query: each staged run
   applies a burst of single-node occupancy events to a half-busy grid
   and re-queries the finder after each one, the way a scheduling pass
   interleaves placements and candidate queries. The toggles flip the
   same nodes back and forth, so grid state is stable across Bechamel
   iterations. The prefix rows time a full summed-area build per event
   against the free-row mask refresh the cache pays instead. *)
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
  let rows_refresh =
    let grid = busy_grid ~seed:4 ~fraction:0.5 in
    let cache = Finder.Cache.create grid in
    Bechamel.Staged.stage (fun () ->
        List.iter
          (fun node ->
            toggle grid node;
            ignore (Finder.Cache.table cache))
          nodes)
  in
  Bechamel.Test.make_grouped ~name:"finder-incremental"
    [
      Bechamel.Test.make ~name:"events-16/rebuild-per-query" rebuild;
      Bechamel.Test.make ~name:"events-16/incremental-cache" incremental;
      Bechamel.Test.make ~name:"requery/memo-hit" requery;
      Bechamel.Test.make ~name:"prefix-16-events/full-build" prefix_full;
      Bechamel.Test.make ~name:"rows-16-events/refresh" rows_refresh;
    ]

(* Machine-size scaling: the same operations at the paper's 4x4x8
   supernode view up to the full 64x32x32 node torus (512x the
   volume). A node mutation with its slab-count upkeep stays
   near-flat as the machine grows. Both probes are the one-box query
   [select ~cap:1], the question "is any box of this volume free?".
   The infeasible one, whose shapes the summary's slab counts rule out
   before any erosion at every size, runs on a fresh cache, so it also pays the O(volume/32) free-row mask
   refresh and grows sublinearly, not flat (EXPERIMENTS.md has the
   numbers); the cached one is a memo hit. The full prefix-table build
   shows the O(volume) cost of a summed-area scan. 90% occupancy makes
   a sixteenth-machine partition geometrically impossible at scale, so
   the infeasible probe exercises the reject path the scheduler hits
   whenever the queue holds jobs bigger than any surviving hole.
   A 15-event failure trace is the set-up cost a run pays per machine
   size: the permutation and prefix sums are O(volume), each draw
   O(log volume), and the Zipf table is built once per size. *)
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
        ignore (Finder.Cache.select cache ~volume:2 ~cap:1);
        [
          Bechamel.Test.make
            ~name:(Printf.sprintf "mutate-64/%s" name)
            (Bechamel.Staged.stage (fun () -> List.iter toggle nodes));
          Bechamel.Test.make
            ~name:(Printf.sprintf "probe-infeasible/%s" name)
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Finder.Cache.select (Finder.Cache.create grid)
                      ~volume:(max 8 (volume / 16))
                      ~cap:1)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "probe-feasible-cached/%s" name)
            (Bechamel.Staged.stage (fun () -> ignore (Finder.Cache.select cache ~volume:2 ~cap:1)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "prefix-build/%s" name)
            (Bechamel.Staged.stage (fun () -> ignore (Prefix.build grid)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "failure-gen/%s" name)
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Bgl_failure.Generator.generate
                      (Bgl_failure.Generator.default ~span:1e6 ~volume ~n_events:15 ~seed:11))));
        ])
      sizes
  in
  Bechamel.Test.make_grouped ~name:"torus-scale" tests

(* The capped counted query vs capping the full list: candidate
   queries on near-empty machines, the regime where the free-box
   population is maximal. [materialise-cap-24] is the uncapped select
   ([Cache.find]) followed by the cap, so it selects every box to keep
   24. Both rows run on a fresh cache, so each pays one mask build and
   neither is a memo hit. *)
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
           scheduler's steady near-empty state, where most rows are
           full or hold one long run. *)
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
  (* The full machine with 200 scattered 2x2x2 jobs: most eroded rows
     are partial rather than full, so the count pass's per-row x
     erosion does the work instead of the full-row shortcut. *)
  let fragmented =
    let d = Dims.bgl_full in
    let grid = Grid.create d in
    let rng = Bgl_stats.Rng.create ~seed:5 in
    let placed = ref 0 in
    while !placed < 200 do
      let pick n = Bgl_stats.Rng.int rng n in
      let box = Box.make (Coord.make (pick d.nx) (pick d.ny) (pick d.nz)) (Shape.make 2 2 2) in
      if Grid.box_is_free grid box then begin
        incr placed;
        Grid.occupy grid box ~owner:!placed
      end
    done;
    Bechamel.Test.make ~name:"select-24/64x32x32/fragmented"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Finder.Cache.select (Finder.Cache.create grid) ~volume:(Dims.volume d / 256) ~cap:24)))
  in
  Bechamel.Test.make_grouped ~name:"finder-counted" (tests @ [ fragmented ])

(* The engine's EASY reservation on a half-busy machine: 16 running
   boxes in a 2x2x8 checkerboard of (nx/2, ny/2, nz/8) blocks, released
   a z-plane of blocks at a time into the cache's what-if scratch, for a
   head holding half the machine. Every release leaves enough free
   nodes, so [first_free] runs after each, and only the eighth, which
   frees the lower half, finds a box. The cache is long-lived, as the
   engine's is. [select-1/fresh/4x4x8] is a one-off capped query on a
   fresh cache of a half-busy 4x4x8 grid: its masks and the x-base
   tables of its shapes' widths are built inside the timed call. *)
let what_if_tests () =
  let reservation (name, (d : Dims.t)) =
    let grid = Grid.create d in
    let block = Shape.make (d.nx / 2) (d.ny / 2) (d.nz / 8) in
    let running = ref [] in
    for bz = 7 downto 0 do
      for by = 1 downto 0 do
        for bx = 1 downto 0 do
          if (bx + by + bz) mod 2 = 0 then begin
            let box = Box.make (Coord.make (bx * block.sx) (by * block.sy) (bz * block.sz)) block in
            Grid.occupy grid box ~owner:(List.length !running);
            running := box :: !running
          end
        done
      done
    done;
    let cache = Finder.Cache.create grid and volume = Dims.volume d / 2 in
    let reserve () =
      let what_if = Finder.Cache.what_if cache in
      let rec release = function
        | [] -> None
        | box :: rest -> (
            Finder.Cache.release what_if box;
            if Finder.Cache.free_nodes what_if < volume then release rest
            else
              match Finder.Cache.first_free what_if ~volume with
              | Some _ as found -> found
              | None -> release rest)
      in
      release !running
    in
    assert (reserve () <> None);
    Bechamel.Test.make
      ~name:(Printf.sprintf "reservation/%s" name)
      (Bechamel.Staged.stage (fun () -> ignore (reserve ())))
  in
  let half = busy_grid ~seed:1 ~fraction:0.5 in
  Bechamel.Test.make_grouped ~name:"what-if"
    (List.map reservation
       [ ("4x4x8", Dims.bgl); ("8x8x16", Dims.make 8 8 16); ("64x32x32", Dims.bgl_full) ]
    @ [
        Bechamel.Test.make ~name:"select-1/fresh/4x4x8"
          (Bechamel.Staged.stage (fun () ->
               ignore (Finder.Cache.select (Finder.Cache.create half) ~volume:32 ~cap:1)));
      ])

(* The balancing policy's loss path on a warm cache: one [Mfp.volume]
   and then a [volume_after] probe for each of 12 candidates from a
   capped [select], as a placement pass scores a job. The machine is
   half busy with randomly placed job-like boxes, so the probes read
   packed level boxes rather than only empty levels. The cache has
   answered the same queries once before timing, so its masks, tables
   and forced levels are all warm. *)
let mfp_probe_tests () =
  let probes (name, (d : Dims.t)) =
    let grid = Grid.create d in
    let rng = Bgl_stats.Rng.create ~seed:9 in
    let owner = ref 0 in
    while 2 * Grid.busy_count grid < Dims.volume d do
      let pick n = Bgl_stats.Rng.int rng n in
      let extent n = 1 + pick (max 1 (n / 2)) in
      let box =
        Box.make (Coord.make (pick d.nx) (pick d.ny) (pick d.nz))
          (Shape.make (extent d.nx) (extent d.ny) (extent d.nz))
      in
      if Grid.box_is_free grid box then begin
        incr owner;
        Grid.occupy grid box ~owner:!owner
      end
    done;
    let cache = Finder.Cache.create grid in
    let candidates = Finder.Cache.select cache ~volume:4 ~cap:12 in
    assert (List.length candidates = 12);
    let probe () =
      ignore (Mfp.volume ~cache grid);
      List.iter (fun c -> ignore (Mfp.volume_after ~cache grid c)) candidates
    in
    probe ();
    Bechamel.Test.make ~name:(Printf.sprintf "probes-12/%s" name) (Bechamel.Staged.stage probe)
  in
  Bechamel.Test.make_grouped ~name:"mfp"
    (List.map probes [ ("4x4x8", Dims.bgl); ("8x8x16", Dims.make 8 8 16) ])

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

(* Domain-pool overhead/scaling on a CPU-bound kernel, one pool per
   domain count, spawned before timing starts. On a single-core host
   d>1 only measures the batch hand-off cost; on a multi-core one it
   shows the scaling headroom of parallel sweeps. *)
let parallel_tests pools =
  let half = busy_grid ~seed:3 ~fraction:0.5 in
  let items = Array.make 16 half in
  let map_on pool =
    Bechamel.Test.make
      ~name:(Printf.sprintf "pool/map-mfp-16/d=%d" (Bgl_parallel.Pool.size pool))
      (Bechamel.Staged.stage (fun () ->
           ignore (Bgl_parallel.Pool.map_supervised pool (fun g -> Mfp.volume g) items)))
  in
  Bechamel.Test.make_grouped ~name:"parallel" (List.map map_on pools)

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
  let pools = List.map (fun domains -> Bgl_parallel.Pool.create ~domains) [ 1; 2; 4 ] in
  Fun.protect
    ~finally:(fun () -> List.iter Bgl_parallel.Pool.shutdown pools)
    (fun () ->
      run_micro_groups
        ~banner:"micro: partition finders (Appendix 9 lineage), engine kernels, obs overhead"
        [
          finder_tests ();
          finder_incremental_tests ();
          event_queue_tests ();
          obs_tests ();
          parallel_tests pools;
          serve_tests ();
        ])

(* The scaling group keeps tens of megabytes of grid state live, so
   bechamel's default per-sample GC stabilisation (a compaction each
   time, not charged against the quota) would dominate the wall clock;
   run it unstabilised with a smaller sample budget instead. *)
let run_scale_micro () =
  run_micro_groups
    ~cfg:(Bechamel.Benchmark.cfg ~stabilize:false ~limit:300 ~quota:(Bechamel.Time.second 0.25) ())
    ~banner:"micro: machine-size scaling (4x4x8 .. 64x32x32)"
    [ torus_scale_tests (); finder_counted_tests (); what_if_tests (); mfp_probe_tests () ]

let () =
  let t0 = Bgl_obs.Clock.now () in
  (match List.tl (Array.to_list Sys.argv) with
  | [] | [ "micro" ] -> run_micro ()
  | [ "scale" ] -> run_scale_micro ()
  | [ "serve" ] ->
      run_micro_groups ~banner:"micro: bgl-served request-path kernels" [ serve_tests () ]
  | _ ->
      Format.eprintf "usage: main.exe [micro|scale|serve]@.";
      exit 1);
  Format.printf "total wall time: %.1f s@." (Bgl_obs.Clock.now () -. t0)
