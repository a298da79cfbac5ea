(* bgl-served: the scheduler simulation service.

     bgl-served start --listen unix:/tmp/bgl.sock --state-dir /tmp/bgl-state
     bgl-served ping --listen unix:/tmp/bgl.sock
     bgl-served call --listen unix:/tmp/bgl.sock '{"op":"sim","algo":"mfp","jobs":200}'

   `start` runs the daemon in the foreground until SIGTERM/SIGINT,
   then drains: admitted requests finish and journal, the socket
   closes, exit 0. SIGKILL is survivable too — acknowledged requests
   are durable, and the next `start` on the same --state-dir finishes
   them (resuming their cell journals) before accepting traffic.

   `call` sends one request and streams every response frame to
   stdout as JSONL. Exit codes: 0 result received, the frame's own
   code for an error frame, 75 rejected by backpressure (after
   --retries attempts), 74 transport failure.

   `ping` / `health` / `metrics` are `call` with a fixed payload. *)

open Cmdliner
open Bgl_resilience
module Serve = Bgl_serve

let listen_arg =
  let listen_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error
            (fun e -> `Msg e)
            (Serve.Server.listen_of_string s)),
        fun ppf l -> Format.pp_print_string ppf (Serve.Server.listen_to_string l) )
  in
  Arg.(
    required
    & opt (some listen_conv) None
    & info [ "l"; "listen" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH) (or a bare path), $(b,tcp:HOST:PORT), \
           or $(b,:PORT) for 127.0.0.1.")

(* --- start ------------------------------------------------------- *)

let state_dir =
  Arg.(
    required
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Durable request store: acknowledged requests, their cell journals, \
           per-attempt traces, and completed results live here; a restarted \
           server recovers from it.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains in the persistent pool (default: CPU count, capped).")

let queue_cap =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue bound. A request past the bound is rejected with a \
           retry-after hint — the server never buffers unboundedly.")

let memo_cap =
  Arg.(
    value & opt int 64
    & info [ "memo" ] ~docv:"N" ~doc:"In-memory result memo entries (FIFO eviction).")

let retry_after =
  Arg.(
    value & opt float 1.0
    & info [ "retry-after" ] ~docv:"SECONDS"
        ~doc:"Hint advertised in rejected frames.")

let progress =
  Arg.(
    value
    & opt (some int) None
    & info [ "progress" ] ~docv:"N"
        ~doc:"Print an engine heartbeat line to stderr every N simulation events.")

let fail_specs =
  Arg.(
    value & opt_all string []
    & info [ "fail" ] ~docv:"SITE[:MODE]"
        ~doc:
          "Arm a failpoint, e.g. serve.frame:once, serve.accept:visit=2, \
           pool.cell:index=3,once. Repeatable. Injected faults degrade to \
           per-request or per-connection errors, never a server exit.")

let start listen state_dir domains queue_cap memo_cap retry_after progress specs =
  Error.run ~prog:"bgl-served" @@ fun () ->
  Result.bind (Bgl_core.Cli_flags.arm_failpoints specs) @@ fun () ->
  if queue_cap < 1 then Error.usagef "--queue must be >= 1 (got %d)" queue_cap
  else if memo_cap < 1 then Error.usagef "--memo must be >= 1 (got %d)" memo_cap
  else begin
    let config = Serve.Server.default_config ~listen ~state_dir in
    let config =
      {
        config with
        Serve.Server.domains =
          Option.value domains ~default:config.Serve.Server.domains;
        queue_capacity = queue_cap;
        memo_capacity = memo_cap;
        retry_after;
        heartbeat_every = progress;
      }
    in
    if config.Serve.Server.domains < 1 then
      Error.usagef "--domains must be >= 1 (got %d)" config.Serve.Server.domains
    else Result.map (fun () -> 0) (Serve.Server.run config)
  end

let start_cmd =
  let doc = "run the service until SIGTERM, then drain and exit 0" in
  Cmd.v
    (Cmd.info "start" ~doc)
    Term.(
      const start $ listen_arg $ state_dir $ domains $ queue_cap $ memo_cap
      $ retry_after $ progress $ fail_specs)

(* --- client ------------------------------------------------------ *)

let connect_once listen =
  match listen with
  | Serve.Server.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      fd
  | Serve.Server.Tcp { host; port } ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
       with e -> Unix.close fd; raise e);
      fd

(* A restarting server recovers unfinished requests before it binds
   its socket, so "connection refused / no such socket" right after a
   restart is expected — poll until the deadline. *)
let connect ~connect_timeout listen =
  let deadline = Unix.gettimeofday () +. connect_timeout in
  let rec attempt () =
    match connect_once listen with
    | fd -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.2;
        attempt ()
  in
  attempt ()

let frame_ev frame =
  match Bgl_obs.Jsonl.parse frame with
  | Error _ -> None
  | Ok v -> Option.bind (Bgl_obs.Jsonl.member "ev" v) Bgl_obs.Jsonl.to_string_opt

let frame_int field frame =
  match Bgl_obs.Jsonl.parse frame with
  | Error _ -> None
  | Ok v ->
      Option.map int_of_float
        (Option.bind (Bgl_obs.Jsonl.member field v) Bgl_obs.Jsonl.to_float)

(* One request/response exchange; every received frame is echoed to
   stdout. [`Rejected delay] asks the caller to retry. *)
let exchange ~connect_timeout listen payload =
  let fd = connect ~connect_timeout listen in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Frame.write fd payload;
      let reader = Serve.Frame.reader fd in
      let rec loop () =
        match Serve.Frame.read reader with
        | Error detail ->
            Error (Error.Parse { name = "response stream"; detail })
        | Ok None ->
            Error
              (Error.Io
                 {
                   path = Serve.Server.listen_to_string listen;
                   detail = "server closed the stream before a final frame";
                 })
        | Ok (Some frame) -> (
            print_endline frame;
            match frame_ev frame with
            | Some ("pong" | "health" | "metrics" | "result") -> Ok `Done
            | Some "error" ->
                Ok (`Failed (Option.value (frame_int "code" frame) ~default:70))
            | Some "rejected" ->
                Ok
                  (`Rejected
                    (Option.value
                       (Option.bind (Bgl_obs.Jsonl.parse frame |> Result.to_option)
                          (fun v ->
                            Option.bind (Bgl_obs.Jsonl.member "retry_after" v)
                              Bgl_obs.Jsonl.to_float))
                       ~default:1.0))
            | Some ("accepted" | "cell") | Some _ | None -> loop ())
      in
      loop ())

let call_once ?(connect_timeout = 10.) ~retries listen payload =
  let rec attempt left =
    match exchange ~connect_timeout listen payload with
    | Error e -> Error e
    | Ok `Done -> Ok 0
    | Ok (`Failed code) -> Ok code
    | Ok (`Rejected delay) ->
        if left > 0 then begin
          Unix.sleepf delay;
          attempt (left - 1)
        end
        else Ok 75
  in
  attempt retries

let connect_timeout_arg =
  Arg.(
    value & opt float 10.
    & info [ "connect-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Keep retrying the initial connection for this long — a restarting \
           server recovers its unfinished requests before it binds the socket.")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "On a backpressure rejection, sleep the advertised retry-after and \
           resubmit up to N times before giving up with exit 75.")

let payload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JSON" ~doc:"The request payload; $(b,-) reads it from stdin.")

let read_stdin () = In_channel.input_all In_channel.stdin

let call listen connect_timeout retries payload =
  Error.run ~prog:"bgl-served" @@ fun () ->
  let payload = if payload = "-" then read_stdin () else payload in
  call_once ~connect_timeout ~retries listen payload

let call_cmd =
  let doc = "send one request, stream the response frames to stdout" in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(const call $ listen_arg $ connect_timeout_arg $ retries $ payload_arg)

let fixed_op name op =
  let doc = Printf.sprintf "shorthand for call '{\"op\":\"%s\"}'" op in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const (fun listen ->
          Error.run ~prog:"bgl-served" @@ fun () ->
          call_once ~retries:0 listen (Printf.sprintf {|{"op":%S}|} op))
      $ listen_arg)

let cmd =
  let doc = "crash-safe, backpressured scheduler simulation service" in
  Cmd.group
    (Cmd.info "bgl-served" ~doc)
    [
      start_cmd;
      call_cmd;
      fixed_op "ping" "ping";
      fixed_op "health" "health";
      fixed_op "metrics" "metrics";
    ]

let () = exit (Cmd.eval' cmd)
