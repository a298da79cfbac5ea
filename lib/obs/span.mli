(** Hot-path span timing.

    A span names a region of code; {!time} accumulates call count,
    total and maximum duration per name into a domain-local table
    ({!stats} merges the tables of every domain that recorded spans,
    so parallel sweeps profile without contention). Timing is
    off by default: the fast path of {!time} is a single flag test
    plus the call, so instrumented library code stays essentially free
    until a profile is requested ({!set_enabled}). Call sites on very
    hot paths should guard with {!enabled} themselves to avoid even
    the closure allocation:

    {[ if Span.enabled () then Span.time ~name:"eq.push" (fun () -> push_raw t x)
       else push_raw t x ]}

    Durations are read from {!Clock.now}. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val time : name:string -> (unit -> 'a) -> 'a
(** Run [f], attributing its duration to [name] when enabled. The
    duration is recorded even if [f] raises. *)

type stat = {
  name : string;
  count : int;
  total_s : float;
  mean_s : float;
  max_s : float;
}

val stats : unit -> stat list
(** Accumulated spans merged across all domains, largest [total_s]
    first. Call after parallel workers have joined: merging is
    mutex-guarded against table {e registration}, but reads entries
    without synchronising against in-flight {!time} calls. *)

val export : Registry.t -> unit
(** Publish every span as [bgl_span_seconds_total{span="..."}],
    [bgl_span_calls{span="..."}] and [bgl_span_max_seconds{span="..."}]
    gauges. *)

val pp_profile : Format.formatter -> unit -> unit
(** A human-readable profile table of {!stats}. *)
