(** Three-dimensional summed-area table over the occupancy grid.

    Building the table costs O(volume) (O(8·volume) with wraparound,
    because every wrapping dimension is virtually doubled); afterwards
    the number of occupied nodes in any box — wrapped or not — is read
    in O(1). A table is a snapshot: it reflects the grid at build time
    and never changes.

    The production finder ([Bgl_partition.Finder.Cache]) does not use
    it: it reads free-row bitmasks instead. The table survives as an
    independent occupancy representation for the finder's differential
    reference on machines too large for the naive enumeration, and for
    benchmarks. *)

type t

val build : Grid.t -> t
(** Snapshot the grid's occupancy. Rebuild after the grid changes. *)

val occupied_in_box : t -> Box.t -> int
(** Number of occupied nodes inside the box. *)

val box_is_free : t -> Box.t -> bool
