(** The bgl-served daemon: accept loop, connection threads, executor.

    Architecture (DESIGN.md §14):

    - the {e accept loop} (caller's thread) multiplexes a nonblocking
      listener through [select] so a shutdown flag set by a signal
      handler is observed within a tick;
    - one {e connection thread} per client parses frames, answers the
      inline ops ([ping] / [health] / [metrics]) immediately, and
      admits work through the bounded {!Admission} queue — full queue
      means a [rejected] frame with [retry_after], never unbounded
      buffering;
    - a single {e executor thread} runs admitted requests in order.
      Requests execute one at a time (the journal and trace
      plumbing are single-writer state); each request's {e
      cells} fan out across a persistent {!Bgl_parallel.Pool}, so the
      machine is saturated by one request, not by request
      concurrency.

    Durability: an [accepted] request is fsync'd to the {!Store}
    before the frame is sent; sweep cells journal as they complete; a
    SIGKILL'd server re-executes unfinished requests at the next
    startup (before accepting traffic), resuming their journals — so
    completed cells replay instead of re-simulating and the response
    is byte-identical to the uninterrupted one. SIGTERM/SIGINT drain:
    stop accepting, finish and journal everything admitted, exit 0.

    Failpoint sites: ["serve.accept"] (drops the new connection),
    ["serve.frame"] (request read — degrades to an [error] frame on
    that connection), ["serve.write"] (response write — drops the
    frame). None of them takes the server down. *)

type listen = Unix_socket of string | Tcp of { host : string; port : int }

val listen_of_string : string -> (listen, string) result
(** ["unix:PATH"] (or a bare path), ["tcp:HOST:PORT"], [":PORT"]
    (binds 127.0.0.1). *)

val listen_to_string : listen -> string

type config = {
  listen : listen;
  state_dir : string;  (** request store + journals + traces *)
  domains : int;  (** persistent pool size *)
  queue_capacity : int;  (** admission bound *)
  memo_capacity : int;  (** result memo entries *)
  retry_after : float;  (** seconds, advertised in [rejected] frames *)
  heartbeat_every : int option;  (** engine progress lines to stderr *)
  log : Format.formatter;  (** server log lines (stderr by default) *)
}

val default_config : listen:listen -> state_dir:string -> config
(** Pool of {!Bgl_parallel.Pool.recommended} domains, queue bound 16,
    memo 64, retry-after 1s, no heartbeat, log to stderr. *)

val run : config -> (unit, Bgl_resilience.Error.t) result
(** Recover, listen, serve until SIGTERM/SIGINT, drain, return. Owns
    the calling thread. [Error] only for startup failures (state dir
    or socket unusable) — once serving, per-request and per-connection
    failures degrade to frames, never to an exit. *)
