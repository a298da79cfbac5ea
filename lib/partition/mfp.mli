(** Maximal Free Partition (MFP) computation.

    The MFP is the largest contiguous rectangular free partition in the
    torus (Section 5.1, Figure 1). Krevat's heuristic prefers
    placements that leave the largest MFP behind; the balancing
    algorithm's L_MFP term is the drop in MFP volume caused by a
    candidate placement. The search scans shapes in decreasing-volume
    order over a summed-area table, so it stops at the first volume
    level that still has a free box.

    Every entry point takes an optional {!Finder.Cache.t}. A cache
    bound to the queried grid lends the search its incrementally
    maintained summed-area table, and whole-grid results are memoised
    on the occupancy fingerprint in its MFP slot. Without one, or with
    a cache bound to a different grid (the schedulers probe ghost
    copies), the call runs on a fresh [Finder.Cache.create grid]. *)

open Bgl_torus

val volume : ?cache:Finder.Cache.t -> Grid.t -> int
(** Volume of the MFP; 0 when no node is free. *)

val box : ?cache:Finder.Cache.t -> Grid.t -> Box.t option
(** Some maximal free partition (the first in scan order), if any. *)

val volume_after : ?cache:Finder.Cache.t -> Grid.t -> Box.t -> int
(** [volume_after grid candidate] is the MFP volume once [candidate]
    (which must be free) is occupied. The grid is mutated temporarily
    and restored before returning; the probe is noted in the cache on
    the way in and out, so its table updates stay incremental. *)
