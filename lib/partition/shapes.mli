(** Enumeration of admissible partition shapes.

    The paper's Appendix 9 builds the candidate set from
    [SHAPES = { (x, y, z) | xyz = s }]; this module provides that
    enumeration restricted to shapes that fit the torus, plus the
    job-size rounding rule: a request for [s] nodes is served by the
    smallest box volume [v >= s] for which some shape fits (e.g. 11
    nodes on a 4×4×8 torus round up to 12). Catalogues are cached per
    dimension because the scheduler queries them on every placement. *)

open Bgl_torus

val divisors : int -> int list
(** Sorted positive divisors. Argument must be positive. *)

val shapes_of_volume : Dims.t -> int -> Shape.t list
(** All shapes with the exact volume that fit the torus, sorted. *)

val feasible_volumes : Dims.t -> int list
(** Sorted list of all volumes realisable by some fitting shape. *)

val round_up_volume : Dims.t -> int -> int option
(** [round_up_volume d s] is the smallest realisable volume [>= s], or
    [None] when [s] exceeds the torus volume. [s] must be positive. *)

val levels_desc : Dims.t -> (int * Shape.t array) list
(** Every fitting shape grouped by volume, volumes descending, each
    group in shape order. Cached per dimension; callers must not
    mutate the arrays. *)

val shapes_desc : Dims.t -> Shape.t list
(** The shapes of {!levels_desc} flattened into one list: decreasing
    volume, ties in shape order. Not cached: each call builds the list
    afresh from the levels, so it suits reference scans (the naive
    maximal-free-partition search), not hot paths. *)

val orientations : Dims.t -> Shape.t -> Shape.t list
(** The axis permutations of a shape that actually fit the torus: on a
    non-cubic machine (e.g. 64×32×32), {!Bgl_torus.Shape.rotations}
    emits orientations with no valid placement, so candidate
    enumeration must filter through the dimensions. Sorted, distinct;
    may be empty when no orientation fits. *)
