(** Metrics registry: named counters, gauges and fixed-bucket
    histograms, exportable as Prometheus text format or CSV.

    Instruments are created against a registry. The distinguished
    {!noop} registry hands out inert instruments whose operations are
    cheap no-ops, so library code can instrument unconditionally and
    pay (almost) nothing when observability is off — see
    {!Runtime.registry}.

    Metric names follow Prometheus conventions
    ([bgl_sim_events_total]). A counter or gauge name may carry a
    label set inline, e.g. [bgl_sim_events_total{kind="arrival"}]:
    the registry treats the full string as the series identity and
    groups series sharing a base name under one [# TYPE] header.
    Histogram names must be plain (no labels). *)

type t

type counter
type gauge
type histogram

val create : unit -> t
(** A fresh, live registry. *)

val noop : t
(** The inert registry: instruments created from it do nothing and
    exports are empty. *)

val is_noop : t -> bool

val counter : t -> ?help:string -> string -> counter
(** Register (or look up) a monotonically increasing counter.
    Registering the same name twice returns the same underlying cell.
    @raise Invalid_argument on an empty name or if the name is already
    registered with a different instrument kind. *)

val inc : counter -> unit
val add : counter -> float -> unit

val counter_value : counter -> float
(** 0 for noop counters. *)

val gauge : t -> ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val default_buckets : float array
(** Decades from 1e-3 to 1e5 — a serviceable span for both wall-clock
    seconds and simulated seconds. *)

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** Fixed upper-bound buckets (strictly increasing; an implicit [+Inf]
    bucket is always appended). Defaults to {!default_buckets}.
    @raise Invalid_argument on empty/unsorted buckets or a labelled
    name. *)

val observe : histogram -> float -> unit
(** Count [v] into the first bucket whose upper bound is [>= v]. *)

val to_prometheus : t -> string
(** Prometheus text exposition format, version 0.0.4. Histogram
    buckets are cumulative and include the [+Inf] bucket, [_sum] and
    [_count] series. *)

val to_csv : t -> string
(** [name,kind,value] rows (header included); histograms are expanded
    into one cumulative row per bucket plus [_sum] and [_count]. *)
