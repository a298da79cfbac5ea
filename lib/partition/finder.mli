(** Free-partition finders.

    A query asks for every free partition (box) of exactly [volume]
    nodes. Results are canonical ({!Bgl_torus.Box.canonical}) and
    sorted by {!Bgl_torus.Box.compare}, so finder outputs compare
    structurally.

    {b Production.} Every query the simulator makes goes through
    {!Cache}: memoised queries over per-row free bitmasks. Erosion
    along x, which turns a row into a mask with one bit per x base,
    commutes with the word-by-word ANDs along z and y, so the cache
    erodes x once per box width per occupancy, into that width's
    x-base table, and a count, select or MFP level scan erodes the
    table of its shape's width along z and y by log-step: each eroded
    word is one base row's x-base mask, popcounted for a count and read
    lowest bit first for an enumeration. A what-if query scans masks
    edited between queries, so it erodes them along z and y with early
    exit and x-erodes only the base rows it reads. Every box-list
    query, capped or not, is one count-then-select walk that emits
    boxes in sorted order and never builds or sorts more than it
    returns. At every machine size, shapes are first filtered through
    the slab counts of the grid's {!Bgl_torus.Summary}, so shapes
    with no room in some run of slabs never pay for an erosion.

    {b Reference.} The paper's Appendix 9 lineage lives in {!Reference}:
    the naive O(M⁹) enumeration, Krevat's projection of partitions and
    the divisor-shape search. They share none of the production
    machinery and serve as the oracle the production path is tested
    and (in {!section-differential} mode) cross-checked against. *)

open Bgl_torus

(** {1 Candidate cache}

    A per-engine cache that answers finder queries against one
    long-lived grid. It owns the grid's free-row masks — row
    [z * ny + y] holds [nx] free bits in [ceil(nx / 32)] words, rebuilt
    from the grid's occupancy words whenever {!Bgl_torus.Grid.version}
    moved — plus one x-base table per box width queried (rebuilt on
    the same version check) and the erosion scratch every query
    reuses, and memoises
    query results keyed on the grid's occupancy
    {!Bgl_torus.Grid.fingerprint}, so a repeated query on unchanged
    occupancy is a hash lookup. No mutation needs reporting: the
    version check alone keeps every answer current. Nothing in the
    cache mutates the grid. It answers three kinds of question: which
    free boxes of a volume exist ({!Cache.select}, and {!Cache.find},
    its uncapped form), where the MFP lies ({!Cache.mfp_levels}), and
    where a job could start on an occupancy the grid does not hold
    ({!Cache.first_free}). Whether any free box exists is
    [select ~cap:1 <> []]. MFP probes read the {!Cache.mfp_levels}
    index with a disjointness filter, and the engine's reservation
    and migration ask their "what if these jobs were gone" questions
    of the cache's what-if scratch ({!Cache.what_if}), so no caller
    copies the grid or builds a second cache for it. A one-off query
    on any grid is [Cache.create grid] followed by the query. *)

module Cache : sig
  type t

  val create : Grid.t -> t
  (** Bind a cache to [grid]. O(1): the masks and scratch are
      allocated on first use. Memo hits and misses of {!select},
      {!find} and {!mfp_levels} count in [bgl_finder_cache_hits_total]
      and [bgl_finder_cache_misses_total], registered against the
      current {!Bgl_obs.Runtime.registry}. *)

  val grid : t -> Grid.t

  val note_box : t -> Box.t -> unit
  (** A no-op, kept for callers written against the earlier tracked
      table: the masks follow {!Grid.version}, so mutations need no
      report. *)

  val table : t -> int array
  (** The free-row masks, refreshed to the grid's current occupancy:
      word [w] of row [z * ny + y] at index [(z * ny + y) * nw + w],
      [nw = ceil(nx / 32)], bit [x mod 32] of word [x / 32] set iff
      node (x, y, z) is free. The cache's own buffer: read it, do not
      write it, and do not keep it past the next grid mutation. *)

  val find : t -> volume:int -> Box.t list
  (** All free partitions of exactly [volume] nodes, canonical and
      sorted: [select ~cap:max_int], so it shares that query's
      validation, budget site, memo entry and differential check.
      [volume] must be positive; an unrealisable volume yields []. *)

  val select : t -> volume:int -> cap:int -> Box.t list
  (** The engine's capped candidate query: every free box of [volume]
      when their number [n] ≤ [cap], else the [cap] boxes at sorted
      ranks [i*n/cap]. Computed by a count pass (exact free-box counts
      per base row: each shape's x-base table, eroded along z and y,
      holds one word of x bases per base row, and a row's count is
      their popcount) and a select pass that walks only the rows
      holding those ranks, reading the base rows the count pass kept
      for each shape. Memoised per (volume, cap).
      [cap] must be ≥ 1. Counted queries are observable as
      [bgl_finder_counted_queries_total] /
      [bgl_finder_counted_skips_total] and the [finder.count.scan] /
      [finder.count.select] spans. *)

  (** {2 What-if queries}

      Where could a job start on an occupancy the grid does not hold:
      once some running jobs have ended (the engine's EASY
      reservation), or once every running job has been repacked
      (migration)? Each cache owns one what-if scratch: a copy of its
      free-row masks plus a free count, edited a box at a time and
      scanned in the same erosion buffers as every other query. Its
      masks change between queries, so it reads no x-base table: it
      erodes them along z and y by the same log-step as every other
      query, no further than its best row so far, and x-erodes only
      the base rows it reads. The grid is never touched, so its
      {!Bgl_torus.Grid.version} and fingerprint stay put. *)

  type scratch

  val what_if : t -> scratch
  (** Reset the cache's scratch to the grid's current occupancy and
      return it. There is one scratch per cache, and the next
      [what_if] resets it, so finish one what-if before starting
      another. The first call allocates the scratch masks; each call
      copies O(volume / 32) words. *)

  val free_nodes : scratch -> int
  (** Free nodes in the scratch occupancy. *)

  val release : scratch -> Box.t -> unit
  (** Mark every node of the box free in the scratch: OR an x-interval
      mask (two past the seam) into each of the box's rows. *)

  val claim : scratch -> Box.t -> unit
  (** Mark every node of the box busy in the scratch. *)

  val first_free : scratch -> volume:int -> Box.t option
  (** The first free box of [volume] in sorted order on the scratch
      occupancy, the box [select ~cap:1] would return on a grid
      holding it, or [None]. One erosion pass per shape, stopping at
      the row of the best box so far. Not
      memoised, not counted in the hit, miss or counted-query counters,
      and never gated by the grid's {!Bgl_torus.Summary}, which
      describes another occupancy. [volume] must be positive. In
      differential mode it is checked like the other queries (see
      {!section-differential}). *)

  type mfp_level = {
    volume : int;
    shapes : Shape.t array;  (** the level's shapes, in catalogue order *)
    boxes : int array Lazy.t;
        (** every free box of the level, packed as consecutive
            (index into [shapes], x, y, z) quadruples in scan order:
            shapes in array order, bases in {!iter_bases} order *)
  }

  val mfp_levels : t -> mfp_level list
  (** The MFP level index: one entry per level of
      {!Shapes.levels_desc}, volumes descending, each level scanned on
      first force: each of its shapes erodes the x-base table of its
      width, built once per occupancy and shared by every level and
      every count pass on it, along z and y. Memoised on the occupancy
      fingerprint, so every MFP query on one occupancy shares it. *)
end

(** {1 Scan building blocks} *)

val iter_bases : Dims.t -> wrap:bool -> Shape.t -> f:(int -> int -> int -> unit) -> unit
(** [iter_bases d ~wrap s ~f] calls [f x y z] for every base coordinate
    of shape [s] (x fastest, then y, then z): every in-bounds
    coordinate with wraparound (collapsed to 0 along dimensions the
    shape spans fully), or only non-overflowing bases without. *)

(** {1:differential Differential mode}

    A global debug switch: while enabled, every {!Cache.select} (so
    every {!Cache.find}) is cross-checked against an independent
    reference on the same grid: its box list must equal the
    reference's, capped the same way, and every returned box is
    independently validated (in-bounds, exact volume, actually free).
    A what-if query ({!Cache.first_free}) is checked against the
    reference's first box on a grid rebuilt node by node from the
    scratch masks, counted in
    [bgl_finder_what_if_differential_checks_total]. The reference is the {!Reference.Naive}
    enumeration on supernode-scale grids (volume ≤ 128) and a freshly
    built, summary-ungated {!Bgl_torus.Prefix} table scan above that —
    an occupancy representation sharing none of the free-row masks,
    memoization, counted walk or summary gating under test. MFP is
    guarded too: every {!Bgl_partition.Mfp} query ([box], [volume],
    [volume_after]) hands the box it settled on to {!guard_mfp}, which
    compares it with {!Reference.mfp}, so the {!Cache.mfp_levels}
    index is checked as well. Any disagreement raises {!Divergence}.
    Orders of magnitude slower than the queries it guards — meant for
    CI smoke runs and bug hunts, never production sweeps. The flag is atomic and
    process-wide, so parallel sweep domains all honour it. *)

exception Divergence of string
(** Raised when a cache query disagrees with the reference. The
    payload is a human-readable report including both answers and (on
    small grids) an ASCII dump of the grid. *)

val set_differential : ?sample:int -> bool -> unit
(** [set_differential ~sample:n true] cross-checks every nth guarded
    query (default 1 = every query) — sampling makes the {!Cache}
    checks affordable on full-machine runs, though not the MFP checks
    (see {!guard_mfp}). [sample] must be ≥ 1. *)

val guard_mfp : site:string -> ?avoid:Box.t -> Grid.t -> Box.t option -> unit
(** [guard_mfp ~site ?avoid grid found] is the MFP half of differential
    mode, called by every {!Bgl_partition.Mfp} entry point with the box
    it settled on. When this query is armed (sampled like the {!Cache}
    queries), [found] must equal [Reference.mfp ?avoid grid], else
    {!Divergence} is raised; each check counts in
    [bgl_finder_mfp_differential_checks_total]. A no-op while
    differential mode is off.

    Each check rescans every level above the MFP against a freshly
    built table, so its cost grows much faster than the machine: one
    check took 0.2–0.7 s at 4,096 nodes, 1.6–2.6 s at 8,192 (2% and 20%
    of nodes busy) and 216 s at 64×32×32 (2% busy), on a 2-vCPU VM.
    Under an MFP-family policy even sampled checking is practical only
    up to a few thousand nodes; at 64×32×32 check first-fit runs, which
    make no MFP query. *)

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

  val mfp : ?avoid:Box.t -> Grid.t -> Box.t option
  (** The maximal free partition by its definition: the first box in
      scan order — levels of {!Shapes.levels_desc} descending, shapes
      in level order, bases in {!iter_bases} order — whose nodes are
      all free and which does not overlap [avoid]. With [avoid], its
      volume is the MFP once [avoid] is occupied. Freeness is judged
      node by node up to 128 nodes and by a freshly built
      {!Bgl_torus.Prefix} table above, sharing none of the
      {!Cache.mfp_levels} index or the summary. *)
end
