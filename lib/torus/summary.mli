(** Coarse occupancy summary.

    Maintained inline by {!Grid}: free-node counts per axis slab (each
    yz-, xz- and xy-plane), updated in O(sx + sy + sz) per box
    occupied or vacated and in O(1) per single node. The finders consult it
    through {!shape_feasible} to reject candidate shapes before paying
    for a mask erosion.

    All probes are conservative: [false] proves no free box of the
    shape exists; [true] only licenses the exact search. *)

type t

val create : Dims.t -> t
(** Summary of a fully free grid. *)

val occupy : t -> Coord.t -> unit
(** Record that the cell just became occupied. *)

val vacate : t -> Coord.t -> unit
(** Record that the cell just became free. *)

val occupy_box : t -> Box.t -> unit
(** Record that every cell of the (in-bounds) box just became
    occupied: each of the box's sx x-slabs, counted cyclically from
    its base, loses sy·sz free nodes, and likewise along y and z. The
    same counts as {!occupy} on each cell, in O(sx + sy + sz). *)

val vacate_box : t -> Box.t -> unit
(** The inverse of {!occupy_box}. *)

val slab_free : t -> axis:[ `X | `Y | `Z ] -> int -> int
(** [slab_free t ~axis:`X x] is the number of free nodes in the plane
    of all cells with that x coordinate. *)

val shape_feasible : t -> wrap:bool -> Shape.t -> bool
(** Necessary condition for a free box of exactly this shape to exist
    (with or without torus wraparound): along each axis, some run of
    consecutive slabs as long as the box's extent there (cyclic when
    wrapped) must hold, in every slab, at least the box's
    cross-section of free nodes. A [false] is definitive; a [true]
    must be confirmed by an exact finder. *)
