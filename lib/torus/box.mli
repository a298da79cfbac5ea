(** Rectangular partitions: a base coordinate plus a shape.

    With torus wraparound enabled, a box may extend past a dimension's
    upper edge and continue from 0; such a box is still contiguous in
    the torus topology. *)

type t = { base : Coord.t; shape : Shape.t }

val make : Coord.t -> Shape.t -> t
val volume : t -> int

val indices : Dims.t -> t -> int list
(** Linear indices of the nodes the box covers, wrapped into bounds,
    x fastest, then y, then z. The base must be in bounds and the
    shape must fit the torus. Built directly, with no intermediate
    coordinate: every predictor query and every
    {!Grid.occupy}/{!Grid.vacate} calls it. *)

val canonical : Dims.t -> wrap:bool -> t -> t
(** Normal form used to deduplicate finder output: when wraparound is
    on and the shape spans a full dimension, every base along that
    dimension denotes the same node set, so the base component is
    forced to 0. *)

val overlap : Dims.t -> t -> t -> bool
(** Whether the two boxes share at least one (wrapped) node. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
