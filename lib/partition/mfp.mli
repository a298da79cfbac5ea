(** Maximal Free Partition (MFP) computation.

    The MFP is the largest contiguous rectangular free partition in the
    torus (Section 5.1, Figure 1). Krevat's heuristic prefers
    placements that leave the largest MFP behind; the balancing
    algorithm's L_MFP term is the drop in MFP volume caused by a
    candidate placement. Every query reads the cache's MFP level index
    ({!Finder.Cache.mfp_levels}): free boxes grouped by volume, levels
    descending, so a query answers from the first level holding a box
    it accepts. Levels are read as packed coordinates: a box is built
    only for the answer. No query mutates the grid.

    Every entry point takes an optional {!Finder.Cache.t}. A cache
    bound to the queried grid lends its index, which every query on
    one occupancy shares; the engine always passes the cache of its
    own grid. Without one, or with a cache bound to a different grid,
    the call runs on a fresh [Finder.Cache.create grid].

    In differential mode ({!Finder.set_differential}) every entry
    point's answer is checked against {!Finder.Reference.mfp} by
    {!Finder.guard_mfp}. *)

open Bgl_torus

val volume : ?cache:Finder.Cache.t -> Grid.t -> int
(** Volume of the MFP; 0 when no node is free. *)

val box : ?cache:Finder.Cache.t -> Grid.t -> Box.t option
(** Some maximal free partition (the first in scan order), if any. *)

val volume_after : ?cache:Finder.Cache.t -> Grid.t -> Box.t -> int
(** [volume_after grid candidate] is the MFP volume once [candidate]
    (which must be free) is occupied: the largest free box disjoint
    from it. The grid is only read. The scan starts at the highest
    level no larger than the free count less the candidate's volume
    (levels above the current MFP hold no box, so no MFP query comes
    first) and, per shape, tests each packed base against the cyclic
    window of bases along each axis whose boxes meet the candidate. *)
