(** The bgl-served request/response vocabulary.

    Requests are one JSON object per frame with an ["op"] field:

    - [{"op":"ping"}] — liveness probe, answered inline;
    - [{"op":"health"}] — queue depth, in-flight count, memo stats;
    - [{"op":"metrics"}] — the live registry in Prometheus exposition
      format;
    - [{"op":"sim", ...}] — one scenario run: [profile], [algo]
      (through {!Bgl_core.Scenario.algo_of_string}), [jobs], [load],
      [failures] (paper scale, zero or more), [seed], [dims] ("8x8x8"), optional
      inline [swf] and [failure_log] payloads, optional [fuel] /
      [deadline] budget;
    - [{"op":"sweep", ...}] — one figure sweep: [figure] (a name in
      {!Bgl_core.Figures.catalogue}; ablations and baseline studies
      are bgl-sweep only), [jobs], [seeds] (replication
      count), [dims], [fuel], [deadline].

    Responses are frames with an ["ev"] field: [pong], [health],
    [metrics], [accepted], [rejected] (backpressure, with
    [retry_after]), [cell] (per-cell progress), [result], [error].
    [result] frames are {e deterministic in the request}: they carry
    no queue positions, timings, or cache markers, so a response
    replayed from the store after a crash is byte-identical to the one
    a live run would have produced. Run-dependent colour lives only in
    the advisory [accepted] / [cell] / [health] frames. *)

type sim = {
  scenario : Bgl_core.Scenario.t;
  log : Bgl_trace.Job_log.t option;  (** parsed inline SWF payload *)
  failures : Bgl_trace.Failure_log.t option;  (** parsed inline failure log *)
  swf_digest : string option;  (** digest of the raw payload, for {!key} *)
  flog_digest : string option;
}

type sweep = { figure : string; scale : Bgl_core.Figures.scale }

type work = Sim of sim | Sweep of sweep

type request =
  | Ping
  | Health
  | Metrics
  | Work of { work : work; fuel : int option; deadline : float option }

val parse : string -> (request, string) result
(** Parse and validate one request payload. Inline SWF / failure-log
    payloads are parsed here, so a poison request dies at admission
    with a clean [error] frame instead of poisoning the executor. *)

val key : request -> string option
(** Canonical semantic key of a work request ([None] for the inline
    ops). Two requests with the same key compute the same result:
    the key spells out the scenario label (which includes config and
    dims), payload digests, figure id, scale, and [fuel] — but not
    [deadline], which is wall-clock and cannot change a {e completed}
    result (a deadline overrun degrades the request, and degraded
    results are never stored or memoized). *)

val fingerprint : request -> string option
(** Hex digest of {!key} — the request's identity in the admission
    queue, the durable store, and every response frame's ["req"]. *)

(** {1 Response frames} *)

val pong : string

val health :
  status:string ->
  queue_depth:int ->
  inflight:int ->
  memo_hits:int ->
  memo_misses:int ->
  requests_total:int ->
  heartbeat:Bgl_obs.Heartbeat.snapshot option ->
  string

val metrics : prometheus:string -> string

val accepted : req:string -> queue_depth:int -> string

val rejected : queue_depth:int -> retry_after:float -> string
(** The backpressure frame: admission queue full, try again in
    [retry_after] seconds. *)

val cell : req:string -> label:string -> report:Bgl_sim.Metrics.report -> string

val result_sim : req:string -> report:Bgl_sim.Metrics.report -> string

val result_sweep :
  req:string ->
  figures:Bgl_core.Series.figure list ->
  quarantined:string list ->
  string
(** [quarantined] non-empty marks a degraded sweep (those cells'
    figure points are placeholders); degraded results are sent but
    never stored. *)

val error : ?req:string -> code:int -> string -> string
(** [code] is the {!Bgl_resilience.Error.exit_code} the same failure
    would produce in a CLI. *)
