open Bgl_resilience

type listen = Unix_socket of string | Tcp of { host : string; port : int }

let listen_of_string s =
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
        Ok (Tcp { host = (if host = "" then "127.0.0.1" else host); port = p })
    | _ -> Error (Printf.sprintf "bad port %S" port)
  in
  match String.index_opt s ':' with
  | None -> if s = "" then Error "empty listen address" else Ok (Unix_socket s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" -> if rest = "" then Error "unix: needs a path" else Ok (Unix_socket rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp: needs HOST:PORT"
          | Some j ->
              tcp (String.sub rest 0 j)
                (String.sub rest (j + 1) (String.length rest - j - 1)))
      | "" -> tcp "" rest
      | _ -> Error (Printf.sprintf "unknown listen scheme %S" scheme))

let listen_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

type config = {
  listen : listen;
  state_dir : string;
  domains : int;
  queue_capacity : int;
  memo_capacity : int;
  retry_after : float;
  heartbeat_every : int option;
  log : Format.formatter;
}

let default_config ~listen ~state_dir =
  {
    listen;
    state_dir;
    domains = Bgl_parallel.Pool.recommended ();
    queue_capacity = 16;
    memo_capacity = 64;
    retry_after = 1.0;
    heartbeat_every = None;
    log = Format.err_formatter;
  }

(* --- server state ----------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  send_lock : Mutex.t;
  mutable alive : bool;
}

type job = {
  fp : string;
  payload : string;
  work : Protocol.work;
  fuel : int option;
  deadline : float option;
  conn : conn option;  (** [None] for recovered requests *)
}

type t = {
  config : config;
  store : Store.t;
  memo : Memo.t;
  queue : job Admission.t;
  pool : Bgl_parallel.Pool.t;
  stopping : bool Atomic.t;
  heartbeat : Bgl_obs.Heartbeat.t option;
  registry : Bgl_obs.Registry.t;
  c_requests : Bgl_obs.Registry.counter;
  c_rejected : Bgl_obs.Registry.counter;
  c_results : Bgl_obs.Registry.counter;
  c_errors : Bgl_obs.Registry.counter;
  g_queue : Bgl_obs.Registry.gauge;
  g_inflight : Bgl_obs.Registry.gauge;
  g_memo_hits : Bgl_obs.Registry.gauge;
  g_memo_misses : Bgl_obs.Registry.gauge;
  conns_lock : Mutex.t;
  mutable conns : (conn * Thread.t) list;
}

let logf t fmt =
  Format.fprintf t.config.log ("[bgl-served] " ^^ fmt ^^ "@.")

(* --- frame sending ---------------------------------------------- *)

(* Caller holds [conn.send_lock]. A peer that vanished (EPIPE /
   ECONNRESET / send-timeout EAGAIN) or raised an injected
   ["serve.write"] fault costs this frame — and for I/O errors the
   connection — never the server. *)
let send_unlocked t conn frame =
  if conn.alive then
    try Frame.write conn.fd frame with
    | Unix.Unix_error _ -> conn.alive <- false
    | Failpoint.Injected { site; _ } ->
        Bgl_obs.Registry.inc t.c_errors;
        logf t "dropped a frame (injected fault at %s)" site

let send t conn frame =
  Mutex.lock conn.send_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.send_lock)
    (fun () -> send_unlocked t conn frame)

let send_opt t job frame =
  match job.conn with None -> () | Some conn -> send t conn frame

(* --- per-request traces ----------------------------------------- *)

(* Each execution attempt of a request writes its own numbered trace
   file; after a kill-and-resume, [fp.trace.1 fp.trace.2 ...] audit as
   one stitched stream (the resumed attempt declares its parent via
   the journal digest {!Bgl_core.Sweep.run} installs). Same flush
   discipline as Obs_cli: force the line buffer out at each section
   trailer so trace durability stays ahead of the journal append that
   follows it. *)
let with_trace t ~fp f =
  let rec fresh n =
    let path =
      Filename.concat (Store.dir t.store) (Printf.sprintf "%s.trace.%d" fp n)
    in
    if Sys.file_exists path then fresh (n + 1) else path
  in
  let oc = open_out_bin (fresh 1) in
  Bgl_obs.Runtime.set_trace_writer
    (Some
       (fun line ->
         output_string oc (line ^ "\n");
         if Bgl_sim.Recorder.is_summary_line line then flush oc));
  Fun.protect
    ~finally:(fun () ->
      Bgl_obs.Runtime.set_trace_writer None;
      Bgl_obs.Runtime.set_trace_parent None;
      flush oc;
      close_out oc)
    f

(* --- request execution (executor thread only) -------------------- *)

let exec_sim job policy (s : Protocol.sim) =
  (* Only payload runs carry the fingerprint in their run id: the
     scenario label already names everything a synthetic run uses. *)
  let run () =
    (Bgl_core.Scenario.run
       ?run_tag:(Option.map (fun _ -> job.fp) s.log)
       ?log:s.log ?failures:s.failures s.scenario)
      .Bgl_sim.Engine.report
  in
  match Supervise.run policy run with
  | Supervise.Completed { value = report; _ } ->
      (Protocol.result_sim ~req:job.fp ~report, true)
  | Supervise.Quarantined err ->
      ( Protocol.error ~req:job.fp ~code:3
          (Printf.sprintf "quarantined after %d attempt%s: %s" err.attempts
             (if err.attempts = 1 then "" else "s")
             err.message),
        false )

let exec_sweep t job policy (s : Protocol.sweep) =
  let producer =
    match Bgl_core.Figures.(find catalogue s.figure) with
    | Some p -> p
    | None -> assert false (* validated at parse *)
  in
  let jpath = Store.journal_path t.store ~fp:job.fp in
  let journal =
    if Store.journal_exists t.store ~fp:job.fp then Bgl_core.Sweep.Resume jpath
    else Bgl_core.Sweep.Fresh jpath
  in
  let on_cell sc report =
    match job.conn with
    | None -> ()
    | Some conn ->
        send t conn
          (Protocol.cell ~req:job.fp ~label:(Bgl_core.Scenario.label sc) ~report)
  in
  match
    Bgl_core.Sweep.run ~policy ~journal ~on_cell ~pool:t.pool producer s.scale
  with
  | Error e ->
      (Protocol.error ~req:job.fp ~code:(Error.exit_code e) (Error.to_string e), false)
  | Ok outcome ->
      let quarantined =
        List.map
          (fun (c : Bgl_core.Sweep.cell_failure) -> c.Bgl_core.Sweep.label)
          outcome.Bgl_core.Sweep.quarantined
      in
      ( Protocol.result_sweep ~req:job.fp ~figures:outcome.Bgl_core.Sweep.figures
          ~quarantined,
        quarantined = [] )

let execute t job =
  match Store.result t.store ~fp:job.fp with
  | Some frame ->
      (* A duplicate admitted while the original was still queued. *)
      Memo.add t.memo job.fp frame;
      send_opt t job frame
  | None ->
      let policy =
        match (job.fuel, job.deadline) with
        | None, None -> Supervise.default
        | fuel, deadline ->
            {
              Supervise.default with
              Supervise.budget = Some (fun () -> Budget.make ?fuel ?deadline ());
            }
      in
      let frame, completed =
        Bgl_obs.Span.time ~name:"serve.request" (fun () ->
            with_trace t ~fp:job.fp (fun () ->
                match job.work with
                | Protocol.Sim s -> exec_sim job policy s
                | Protocol.Sweep s -> exec_sweep t job policy s))
      in
      if completed then begin
        Store.record_result t.store ~fp:job.fp ~frame;
        Memo.add t.memo job.fp frame;
        Bgl_obs.Registry.inc t.c_results
      end
      else begin
        (* Degraded: nothing worth replaying — forget the request so a
           restart does not loop on it. *)
        Store.remove t.store ~fp:job.fp;
        Bgl_obs.Registry.inc t.c_errors
      end;
      send_opt t job frame

let rec executor_loop t =
  match Admission.take t.queue with
  | None -> ()
  | Some job ->
      Bgl_obs.Registry.set t.g_queue (float_of_int (Admission.depth t.queue));
      Bgl_obs.Registry.set t.g_inflight 1.;
      (try execute t job
       with e ->
         (* The executor survives anything a request throws at it. *)
         Bgl_obs.Registry.inc t.c_errors;
         logf t "request %s failed: %s" job.fp (Printexc.to_string e);
         send_opt t job
           (Protocol.error ~req:job.fp ~code:(Error.exit_code (Error.of_exn e))
              (Printexc.to_string e)));
      Bgl_obs.Registry.set t.g_inflight 0.;
      executor_loop t

(* --- inline ops and admission (connection threads) ---------------- *)

let health_frame t =
  Protocol.health
    ~status:(if Atomic.get t.stopping then "draining" else "ok")
    ~queue_depth:(Admission.depth t.queue)
    ~inflight:(int_of_float (Bgl_obs.Registry.gauge_value t.g_inflight))
    ~memo_hits:(Memo.hits t.memo) ~memo_misses:(Memo.misses t.memo)
    ~requests_total:
      (int_of_float (Bgl_obs.Registry.counter_value t.c_requests))
    ~heartbeat:(Option.bind t.heartbeat Bgl_obs.Heartbeat.last)

let metrics_frame t =
  Bgl_obs.Registry.set t.g_queue (float_of_int (Admission.depth t.queue));
  Bgl_obs.Registry.set t.g_memo_hits (float_of_int (Memo.hits t.memo));
  Bgl_obs.Registry.set t.g_memo_misses (float_of_int (Memo.misses t.memo));
  Bgl_obs.Span.export t.registry;
  Protocol.metrics ~prometheus:(Bgl_obs.Registry.to_prometheus t.registry)

let admit t conn req ~payload =
  match (req : Protocol.request) with
  | Protocol.Ping | Protocol.Health | Protocol.Metrics -> assert false
  | Protocol.Work { work; fuel; deadline } -> (
      Bgl_obs.Registry.inc t.c_requests;
      let fp = Option.get (Protocol.fingerprint req) in
      match Memo.find t.memo fp with
      | Some frame -> send t conn frame
      | None -> (
          match Store.result t.store ~fp with
          | Some frame ->
              Memo.add t.memo fp frame;
              send t conn frame
          | None ->
              let job = { fp; payload; work; fuel; deadline; conn = Some conn } in
              (* Hold the send lock across submit + ack so the
                 [accepted] frame is on the wire before the executor
                 can emit the first frame for this job (its sends
                 queue on the same lock). *)
              Mutex.lock conn.send_lock;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock conn.send_lock)
                (fun () ->
                  match Admission.submit t.queue job with
                  | Admission.Admitted depth ->
                      Store.record_request t.store ~fp ~payload;
                      Bgl_obs.Registry.set t.g_queue (float_of_int depth);
                      send_unlocked t conn
                        (Protocol.accepted ~req:fp ~queue_depth:depth)
                  | Admission.Full depth ->
                      Bgl_obs.Registry.inc t.c_rejected;
                      send_unlocked t conn
                        (Protocol.rejected ~queue_depth:depth
                           ~retry_after:t.config.retry_after)
                  | Admission.Draining ->
                      send_unlocked t conn
                        (Protocol.error ~req:fp ~code:74
                           "server is draining; retry after restart"))))

let handle_request t conn payload =
  match Protocol.parse payload with
  | Error detail -> send t conn (Protocol.error ~code:2 detail)
  | Ok Protocol.Ping -> send t conn Protocol.pong
  | Ok Protocol.Health -> send t conn (health_frame t)
  | Ok Protocol.Metrics -> send t conn (metrics_frame t)
  | Ok (Protocol.Work _ as req) -> admit t conn req ~payload

let conn_loop t conn =
  let reader = Frame.reader conn.fd in
  (* [faults] counts consecutive injected read faults: one degrades to
     an [error] frame, a streak closes the connection so an
     always-armed site cannot spin the thread. *)
  let rec loop faults =
    match Frame.read reader with
    | Ok None -> ()
    | Ok (Some payload) ->
        handle_request t conn payload;
        if conn.alive then loop 0
    | Error detail ->
        (* The stream cannot be resynchronised after a framing error:
           answer once, then hang up. *)
        send t conn (Protocol.error ~code:65 ("framing: " ^ detail))
    | exception Failpoint.Injected { site; _ } ->
        Bgl_obs.Registry.inc t.c_errors;
        send t conn
          (Protocol.error ~code:74 (Printf.sprintf "injected fault at %s" site));
        if faults < 2 then loop (faults + 1)
    | exception Unix.Unix_error _ -> ()
  in
  (try loop 0
   with e -> logf t "connection thread died: %s" (Printexc.to_string e));
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun (c, _) -> c != conn) t.conns;
  Mutex.unlock t.conns_lock

(* --- startup: recovery and the listener -------------------------- *)

let recover t =
  match Store.pending t.store with
  | [] -> ()
  | pending ->
      logf t "recovering %d unfinished request%s" (List.length pending)
        (if List.length pending = 1 then "" else "s");
      List.iter
        (fun (fp, payload) ->
          match Protocol.parse payload with
          | Ok (Protocol.Work { work; fuel; deadline }) ->
              logf t "re-executing %s" fp;
              let job = { fp; payload; work; fuel; deadline; conn = None } in
              (try execute t job
               with e ->
                 logf t "recovery of %s failed: %s" fp (Printexc.to_string e))
          | Ok _ | Error _ ->
              logf t "dropping unreadable stored request %s" fp;
              Store.remove t.store ~fp)
        pending

let listener config =
  match config.listen with
  | Unix_socket path ->
      (* A stale socket file from a killed server would make bind fail;
         it is only ever ours (the path is the caller's to manage). *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp { host; port } ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      fd

let accept_loop t lfd =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ lfd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true lfd with
          | cfd, _ -> (
              Unix.clear_nonblock cfd;
              (* Bound how long a send to a slow or dead client can
                 block the executor; on expiry the frame is dropped
                 and the connection marked dead. *)
              (try Unix.setsockopt_float cfd Unix.SO_SNDTIMEO 10.
               with Unix.Unix_error _ | Invalid_argument _ -> ());
              match Failpoint.hit "serve.accept" with
              | () ->
                  let conn =
                    { fd = cfd; send_lock = Mutex.create (); alive = true }
                  in
                  Mutex.lock t.conns_lock;
                  t.conns <- (conn, Thread.create (conn_loop t) conn) :: t.conns;
                  Mutex.unlock t.conns_lock
              | exception Failpoint.Injected _ ->
                  Bgl_obs.Registry.inc t.c_errors;
                  (try Unix.close cfd with Unix.Unix_error _ -> ()))
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle --------------------------------------------------- *)

let run config =
  Error.ignore_sigpipe ();
  let store = Store.create ~dir:config.state_dir in
  let registry = Bgl_obs.Registry.create () in
  Bgl_obs.Runtime.set_registry registry;
  let heartbeat =
    Option.map
      (fun every -> Bgl_obs.Heartbeat.create ~out:config.log ~every ())
      config.heartbeat_every
  in
  Bgl_obs.Runtime.set_heartbeat heartbeat;
  let t =
    {
      config;
      store;
      memo = Memo.create ~capacity:config.memo_capacity;
      queue = Admission.create ~capacity:config.queue_capacity;
      pool = Bgl_parallel.Pool.create ~domains:config.domains;
      stopping = Atomic.make false;
      heartbeat;
      registry;
      c_requests = Bgl_obs.Registry.counter registry "bgl_serve_requests_total";
      c_rejected = Bgl_obs.Registry.counter registry "bgl_serve_rejected_total";
      c_results = Bgl_obs.Registry.counter registry "bgl_serve_results_total";
      c_errors = Bgl_obs.Registry.counter registry "bgl_serve_errors_total";
      g_queue = Bgl_obs.Registry.gauge registry "bgl_serve_queue_depth";
      g_inflight = Bgl_obs.Registry.gauge registry "bgl_serve_inflight";
      g_memo_hits = Bgl_obs.Registry.gauge registry "bgl_serve_memo_hits";
      g_memo_misses = Bgl_obs.Registry.gauge registry "bgl_serve_memo_misses";
      conns_lock = Mutex.create ();
      conns = [];
    }
  in
  (* Signals first: a SIGTERM that lands during recovery must set the
     drain flag, not kill the process mid-journal. *)
  let stop _signal = Atomic.set t.stopping true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  let finish () =
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int;
    Bgl_parallel.Pool.shutdown t.pool;
    Bgl_obs.Runtime.reset ()
  in
  (* Finish what a killed predecessor acknowledged before taking new
     traffic: recovered responses are already durable when the client
     retries its request. *)
  (try recover t
   with e ->
     finish ();
     raise e);
  match listener config with
  | exception Unix.Unix_error (err, fn, arg) ->
      finish ();
      Error
        (Error.Io
           {
             path = listen_to_string config.listen;
             detail = Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err);
           })
  | lfd ->
      Unix.set_nonblock lfd;
      let executor = Thread.create executor_loop t in
      logf t "listening on %s (pool=%d queue=%d)"
        (listen_to_string config.listen)
        (Bgl_parallel.Pool.size t.pool)
        (Admission.capacity t.queue);
      accept_loop t lfd;
      (* Drain: stop accepting, finish everything admitted, then close
         the lingering connections and leave. *)
      logf t "draining (%d queued)" (Admission.depth t.queue);
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (match config.listen with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      Admission.drain t.queue;
      Thread.join executor;
      Mutex.lock t.conns_lock;
      let conns = t.conns in
      Mutex.unlock t.conns_lock;
      List.iter
        (fun (conn, _) ->
          try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun (_, thread) -> Thread.join thread) conns;
      finish ();
      logf t "drained, exiting";
      Ok ()
