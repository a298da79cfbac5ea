(** Free-partition finders.

    A query asks for every free partition (box) of exactly [volume]
    nodes. Results are canonical ({!Bgl_torus.Box.canonical}) and
    sorted by {!Bgl_torus.Box.compare}, so finder outputs compare
    structurally.

    {b Production.} Every query the simulator makes goes through
    {!Cache}: one memoised implementation per query over an
    incrementally maintained summed-area table. At machine volumes of
    512 and above ({!summary_gated}) shapes are first filtered through
    the grid's {!Bgl_torus.Summary}, so infeasible shapes never pay for
    a base scan or a table sync, and capped candidate queries run as a
    count-then-select walk that never materialises the full list.

    {b Reference.} The paper's Appendix 9 lineage lives in {!Reference}:
    the naive O(M⁹) enumeration, Krevat's projection of partitions and
    the divisor-shape search. They share none of the production
    machinery and serve as the oracle the production path is tested
    and (in {!section-differential} mode) cross-checked against. *)

open Bgl_torus

(** {1 Candidate cache}

    A per-engine cache that answers finder queries against one
    long-lived grid. It owns an incrementally maintained summed-area
    table ({!Bgl_torus.Prefix.track}) — callers report each grid
    mutation via {!Cache.note_box}/{!Cache.note_node} — and memoises
    query results keyed on the grid's occupancy
    {!Bgl_torus.Grid.fingerprint}, so a repeated query on unchanged
    occupancy is a hash lookup. MFP what-if probes (occupy then vacate)
    restore the fingerprint, so they do not evict entries. A one-off
    query on any grid is [Cache.create grid] followed by the query. *)

module Cache : sig
  type t

  val create : Grid.t -> t
  (** Bind a cache to [grid]. O(1): the summed-area table is built on
      first use, so ghost caches created for feasibility probes that
      the summary rejects outright never pay for one. Obs counters
      ([bgl_finder_cache_hits_total], [bgl_finder_cache_misses_total],
      [bgl_prefix_updates_total{kind=...}]) are registered against the
      current {!Bgl_obs.Runtime.registry}. *)

  val grid : t -> Grid.t

  val note_box : t -> Box.t -> unit
  (** Report that every node of the box was just occupied or vacated.
      Call once per {!Grid.occupy}/{!Grid.vacate} on the cached grid.
      An unreported mutation is detected via the grid's version counter
      and degrades the next query to a full table rebuild — stale
      results are never served. *)

  val note_node : t -> int -> unit
  (** Single-node variant (failure takedown / repair). *)

  val table : t -> Prefix.t
  (** The underlying summed-area table, synced to the grid's current
      occupancy — for callers that scan it directly (MFP search). *)

  val find : t -> volume:int -> Box.t list
  (** All free partitions of exactly [volume] nodes, canonical and
      sorted, memoised per volume on the occupancy fingerprint.
      [volume] must be positive; an unrealisable volume yields []. *)

  val exists_free : t -> volume:int -> bool
  (** Whether {!find} would be non-empty, with early exit on the first
      free box; memoised like {!find}. *)

  val select : t -> volume:int -> cap:int -> Box.t list
  (** The engine's capped candidate query: the whole {!find} list when
      its length [n] ≤ [cap], else the [cap] boxes at sorted ranks
      [i*n/cap]. Byte-identical to capping {!find}, but computed by a
      count pass (exact free-box counts per base row, whole rows and
      planes skipped through the summary) and a select pass that walks
      only the rows holding those ranks. Memoised per (volume, cap).
      [cap] must be ≥ 1. Counted queries are observable as
      [bgl_finder_counted_queries_total] /
      [bgl_finder_counted_skips_total] and the [finder.count.scan] /
      [finder.count.select] spans. *)

  val mfp_cached : t -> compute:(unit -> Box.t option) -> Box.t option
  (** One-deep memo for the maximal-free-partition search: returns the
      remembered result if the fingerprint still matches, otherwise
      runs [compute] and remembers it. *)

  val stats : t -> int * int
  (** [(hits, misses)] across {!find}, {!exists_free}, {!select} and
      {!mfp_cached}. *)

  val table_stats : t -> Prefix.stats
  (** Incremental-vs-full update counts of the underlying table. *)
end

(** {1 Scan building blocks} *)

val iter_bases : Dims.t -> wrap:bool -> Shape.t -> f:(int -> int -> int -> unit) -> unit
(** [iter_bases d ~wrap s ~f] calls [f x y z] for every base coordinate
    of shape [s] (x fastest, then y, then z): every in-bounds
    coordinate with wraparound (collapsed to 0 along dimensions the
    shape spans fully), or only non-overflowing bases without. *)

val summary_gated : Grid.t -> bool
(** Whether finder scans on this grid consult the occupancy summary
    before enumerating bases (machine volume ≥ 512). *)

val shape_possible : Grid.t -> Shape.t -> bool
(** [false] only when the grid's {!Bgl_torus.Summary} proves no free
    box of the shape exists; always [true] below the gating volume.
    The fast pre-filter used by the scan paths and {!Bgl_partition.Mfp}. *)

(** {1:differential Differential mode}

    A global debug switch: while enabled, every {!Cache} query
    ({!Cache.find}, {!Cache.exists_free}, {!Cache.select}) is
    cross-checked against an independent reference on the same grid,
    and the returned boxes are independently validated (in-bounds,
    exact volume, actually free). The reference is the {!Reference.Naive}
    enumeration on supernode-scale grids (volume ≤ 128) and a freshly
    built, summary-ungated table scan above that — an independent
    occupancy representation exercising none of the incremental
    maintenance, memoization, counted walk or summary gating under
    test. Any disagreement raises {!Divergence}. Orders of magnitude
    slower than the queries it guards — meant for CI smoke runs and bug
    hunts, never production sweeps. The flag is atomic and
    process-wide, so parallel sweep domains all honour it. *)

exception Divergence of string
(** Raised when a cache query disagrees with the reference. The
    payload is a human-readable report including both answers and (on
    small grids) an ASCII dump of the grid. *)

val set_differential : ?sample:int -> bool -> unit
(** [set_differential ~sample:n true] cross-checks every nth guarded
    query (default 1 = every query) — sampling makes differential mode
    affordable on full-machine runs. [sample] must be ≥ 1. *)

val differential_enabled : unit -> bool

(** {1 Reference finders}

    The paper's Appendix 9 lineage, with identical observable
    behaviour but very different running times:

    - [Naive]: enumerate every box of every size, check node by node,
      filter by volume. O(M⁹) on an empty M×M×M torus.
    - [Pop]: a Krevat-style Projection-of-Partitions dynamic program —
      project each z-extent onto a 2-D free map maintained
      incrementally, then scan rectangles with 2-D prefix sums. O(M⁵)
      flavour.
    - [Shape_search]: the paper's algorithm — only divisor shapes of
      the requested volume, scanning bases with early exit on the first
      occupied node. *)

module Reference : sig
  type algo = Naive | Pop | Shape_search

  val all : algo list
  val name : algo -> string

  val find : algo -> Grid.t -> volume:int -> Box.t list
  (** Same contract as {!Cache.find}, uncached. *)
end
