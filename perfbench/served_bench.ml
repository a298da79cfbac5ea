(* The served workload: bgl-served runs as a subprocess on a Unix
   socket; one closed-loop client connection sends a seeded mix of
   pings, cold sims and warm repeats. *)

module Frame = Bgl_serve.Frame
module Protocol = Bgl_serve.Protocol
module Jsonl = Bgl_obs.Jsonl

let daemon_exe = "_build/default/bin/bgl_served_cli.exe"

(* Below the number of distinct cold requests a run makes (over a
   hundred), so warm repeats split between memo hits and reads of the
   stored .result files. *)
let memo_capacity = 16

let retry_after = 0.05
let max_retries = 100
let cold_jobs = 300
let cold_failures = 2000

(* Setups measured per run: daemon spawn to first pong. *)
let setup_samples = 9

(* Cold requests never repeat a seed, within a run or across workload
   seeds. *)
let cold_seed ~seed i = (seed * 100_000) + i

(* The cold requests' scenario, for the in-process layer trace. *)
let cold_spec =
  {
    Sim_bench.name = "served";
    dims = Bgl_torus.Dims.bgl;
    algo = Bgl_core.Scenario.Fault_oblivious;
    n_jobs = cold_jobs;
    failures_paper = Some cold_failures;
    batch = 4;
    traced = 4;
  }

let cold_payload ~seed i =
  Printf.sprintf {|{"op":"sim","algo":"mfp","jobs":%d,"failures":%d,"seed":%d}|} cold_jobs
    cold_failures (cold_seed ~seed i)

type daemon = { pid : int; sock : string; state : string; stderr : string }

(* Daemons still running; killed on any exit path. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~dir n =
  let path fmt = Filename.concat dir (Printf.sprintf fmt n) in
  let d = { pid = 0; sock = path "d%d.sock"; state = path "state-%d"; stderr = path "daemon-%d.err" } in
  let err = Unix.openfile d.stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err;
        Unix.close null)
      (fun () ->
        Unix.create_process daemon_exe
          [|
            daemon_exe; "start"; "--listen"; "unix:" ^ d.sock; "--state-dir"; d.state; "--domains";
            "1"; "--memo"; string_of_int memo_capacity; "--retry-after"; Printf.sprintf "%g" retry_after;
          |]
          null null err)
  in
  live := pid :: !live;
  { d with pid }

let daemon_failure d what =
  let log = try In_channel.with_open_text d.stderr In_channel.input_all with Sys_error _ -> "" in
  failwith (Printf.sprintf "bgl-served %s; its stderr:\n%s" what log)

let check_exit d = function
  | Unix.WEXITED 0 -> live := List.filter (( <> ) d.pid) !live
  | Unix.WEXITED c -> daemon_failure d (Printf.sprintf "exited with code %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> daemon_failure d (Printf.sprintf "died on signal %d" s)

let assert_running d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> ()
  | _, status ->
      check_exit d status;
      daemon_failure d "exited before it was stopped"

(* SIGTERM drains the daemon; it must exit 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = Util.now () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ -> daemon_failure d "did not drain within 60 s of SIGTERM"
    | _, status -> check_exit d status
  in
  wait ()

type conn = { fd : Unix.file_descr; reader : Frame.reader }

(* The daemon binds its socket only after recovery, so connection
   refused / no such socket means "not up yet". *)
let connect d =
  let deadline = Util.now () +. 60. in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.;
        { fd; reader = Frame.reader fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when Util.now () < deadline ->
        Unix.close fd;
        assert_running d;
        Unix.sleepf 0.001;
        attempt ()
  in
  attempt ()

let ev frame =
  match Jsonl.parse frame with
  | Ok v -> Option.bind (Jsonl.member "ev" v) Jsonl.to_string_opt
  | Error _ -> None

(* One exchange up to its final frame, resending after backpressure. *)
let request conn payload =
  let rec send attempt =
    Frame.write conn.fd payload;
    let rec read () =
      match Frame.read conn.reader with
      | Ok (Some frame) -> (
          match ev frame with
          | Some ("accepted" | "cell") -> read ()
          | Some "rejected" when attempt < max_retries ->
              Unix.sleepf retry_after;
              send (attempt + 1)
          | _ -> Ok frame)
      | Ok None -> Error "server closed the connection"
      | Error e -> Error e
    in
    read ()
  in
  send 0

let start ~dir n =
  let t0 = Util.now () in
  let d = spawn ~dir n in
  let conn = connect d in
  match request conn {|{"op":"ping"}|} with
  | Ok frame when ev frame = Some "pong" -> (d, conn, Util.now () -. t0)
  | Ok frame -> daemon_failure d ("answered ping with " ^ frame)
  | Error e -> daemon_failure d ("failed the first ping: " ^ e)

type session = {
  cold : float list;
  warm : float list;
  ping : float list;
  requests : int;
  failed : int;
  busy : float;  (** summed request latency, without the calibration pauses *)
  colds : (string * string) array;  (** payload and result frame per cold request *)
}

(* The closed loop: ~20% pings, ~25% cold sims with fresh seeds, ~55%
   warm repeats drawn uniformly from the earlier cold requests. A warm
   result must equal its cold result byte for byte. A calibration
   sample follows every cold request, while the daemon is idle. *)
let session conn ~seed ~seconds calibration =
  let rng = Bgl_stats.Rng.create ~seed in
  let colds = ref [||] in
  let cold = ref [] and warm = ref [] and ping = ref [] in
  let requests = ref 0 and failed = ref 0 and busy = ref 0. in
  let deadline = Util.now () +. seconds in
  let rec loop () =
    if Util.now () < deadline then begin
      let u = Bgl_stats.Rng.unit_float rng in
      let n_colds = Array.length !colds in
      let kind = if u < 0.20 then `Ping else if u < 0.45 || n_colds = 0 then `Cold else `Warm in
      let payload, expect =
        match kind with
        | `Ping -> ({|{"op":"ping"}|}, fun frame -> ev frame = Some "pong")
        | `Cold -> (cold_payload ~seed n_colds, fun frame -> ev frame = Some "result")
        | `Warm ->
            let payload, frame = !colds.(Bgl_stats.Rng.int rng n_colds) in
            (payload, String.equal frame)
      in
      incr requests;
      match Util.time (fun () -> request conn payload) with
      | Ok frame, dt ->
          busy := !busy +. dt;
          if not (expect frame) then incr failed;
          (match kind with
          | `Ping -> ping := dt :: !ping
          | `Cold ->
              cold := dt :: !cold;
              colds := Array.append !colds [| (payload, frame) |];
              Util.calibrate calibration
          | `Warm -> warm := dt :: !warm);
          loop ()
      | Error e, _ ->
          Util.log "served: request failed: %s" e;
          incr failed
      | exception Unix.Unix_error (err, _, _) ->
          Util.log "served: request failed: %s" (Unix.error_message err);
          incr failed
    end
  in
  loop ();
  {
    cold = !cold;
    warm = !warm;
    ping = !ping;
    requests = !requests;
    failed = !failed;
    busy = !busy;
    colds = !colds;
  }

(* Counters from the daemon's own registry, via the metrics op. *)
let daemon_counters conn =
  match request conn {|{"op":"metrics"}|} with
  | Error e -> failwith ("metrics request failed: " ^ e)
  | Ok frame ->
      let text =
        match Result.to_option (Jsonl.parse frame) with
        | Some v -> Option.bind (Jsonl.member "prometheus" v) Jsonl.to_string_opt
        | None -> None
      in
      let text = match text with Some t -> t | None -> failwith ("bad metrics frame " ^ frame) in
      fun name ->
        String.split_on_char '\n' text
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ n; v ] when n = name -> float_of_string_opt v
               | _ -> None)
        |> Option.value ~default:0.

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* The in-process reference for a cold request: the result frame
   [Scenario.run] yields for the same payload, and its run time. *)
let in_process payload =
  match Protocol.parse payload with
  | Ok (Protocol.Work { work = Protocol.Sim s; _ } as req) ->
      let report, dt =
        Util.time (fun () -> (Bgl_core.Scenario.run s.scenario).Bgl_sim.Engine.report)
      in
      (Protocol.result_sim ~req:(Option.get (Protocol.fingerprint req)) ~report, dt)
  | Ok _ | Error _ -> failwith ("not a sim request: " ^ payload)

let sample_size = 3

let ms x = x *. 1e3

let measure ~seed ~seconds ~trace =
  (* Inside the checkout, and short: a Unix socket path is limited to
     108 bytes, so the socket lives under a relative path. *)
  let dir = Printf.sprintf ".perfbench-run-%d" (Unix.getpid ()) in
  Util.rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let calibration = Util.calibration () in
  let start ~dir n =
    Util.calibrate calibration;
    start ~dir n
  in
  let setups =
    List.init (setup_samples - 1) (fun n ->
        let d, conn, dt = start ~dir n in
        Unix.close conn.fd;
        stop d;
        dt)
  in
  let d, conn, dt = start ~dir setup_samples in
  let setups = dt :: setups in
  let s = session conn ~seed ~seconds calibration in
  let counter = daemon_counters conn in
  let rss = Util.peak_rss_mb (string_of_int d.pid) in
  Unix.close conn.fd;
  stop d;
  let store_bytes = dir_bytes d.state in
  let n_colds = Array.length s.colds in
  if n_colds = 0 then failwith "served: no cold request completed";
  let sample = List.filteri (fun i _ -> i < sample_size) (Array.to_list s.colds) in
  let references = List.map (fun (payload, _) -> in_process payload) sample in
  let mismatches =
    List.fold_left2
      (fun n (_, frame) (reference, _) -> if frame = reference then n else n + 1)
      0 sample references
  in
  let failed = s.failed + mismatches in
  let cold_p50 = Util.median s.cold in
  if not trace then begin
    Util.log "served: as measured setup_s=%.6g run_s=%.6g; calibration kernel median %.6g s over %d samples"
      (Util.median setups) cold_p50 (Util.median calibration.kernel_s) (List.length calibration.kernel_s);
    {
      Util.correct = failed = 0;
      attempted = s.requests;
      failed;
      values =
        [
          ("setup_s", Util.rescale calibration (Util.median setups));
          ("run_s", Util.rescale calibration cold_p50);
          ("peak_rss_mb", rss);
          ("ok_share", float_of_int (s.requests - failed) /. float_of_int s.requests);
        ];
    }
  end
  else begin
    (* The sim layers of a cold request, measured in process on inputs
       of the cold requests' shape. *)
    let phases = Sim_bench.setup cold_spec ~seed in
    let layers = Sim_bench.trace cold_spec ~seed ~setup_phases:phases in
    let q p xs = match xs with [] -> 0. | _ -> ms (Util.quantile p xs) in
    let n_warm = List.length s.warm in
    let memo_hits = counter "bgl_serve_memo_hits" in
    let failed = failed + layers.failed in
    {
      Util.correct = failed = 0;
      attempted = s.requests + layers.attempted;
      failed;
      values =
        layers.metrics
        @ [
            ("serve.req_per_s", float_of_int s.requests /. s.busy);
            ("serve.cold_p90_ms", q 0.9 s.cold);
            ("serve.warm_p50_ms", q 0.5 s.warm);
            ("serve.warm_p90_ms", q 0.9 s.warm);
            ("serve.ping_p50_ms", q 0.5 s.ping);
            ("serve.memo_hit_ratio", if n_warm > 0 then memo_hits /. float_of_int n_warm else 0.);
            ("serve.store_reads", counter "bgl_serve_memo_misses" -. float_of_int n_colds);
            ("serve.rejected", counter "bgl_serve_rejected_total");
            ("serve.errors", counter "bgl_serve_errors_total");
            ("serve.cold_overhead_ms", ms (cold_p50 -. Util.median (List.map snd references)));
            ("store.bytes_per_cold", float_of_int store_bytes /. float_of_int n_colds);
          ];
    }
  end
