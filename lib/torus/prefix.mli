(** Three-dimensional summed-area table over the occupancy grid.

    Building the table costs O(volume) (O(8·volume) with wraparound,
    because every wrapping dimension is virtually doubled); afterwards
    the number of occupied nodes in any box — wrapped or not — is read
    in O(1). This is what turns the shape-driven partition finder of
    the paper's Appendix into the O(1)-per-candidate production finder
    ([Bgl_partition.Finder.Cache]) and makes maximal-free-partition
    search cheap enough to evaluate for every candidate placement.

    Two flavours exist. {!build} is a snapshot: it reflects the grid at
    build time and never changes. {!track} is an incrementally
    maintained table bound to its grid: after each occupy/vacate the
    caller calls {!note_box}/{!note_node}, and the next query
    recomputes only the cumulative block the change can reach (the
    entries dominated by the minimal changed coordinate) instead of the
    whole table. Notes are checked against {!Grid.version}; a mutation
    that was not noted degrades the next {!sync} to a full rebuild, so
    a tracker is never silently stale. *)

type t

val build : Grid.t -> t
(** Snapshot the grid's occupancy. The table does not track later
    mutations; rebuild after the grid changes. *)

val track : Grid.t -> t
(** A tracking table bound to [grid], initially in sync. After each
    grid mutation, call {!note_box} or {!note_node}; queries then
    update the table incrementally (falling back to a full rebuild on
    any unnoted change). *)

val note_box : t -> Box.t -> unit
(** Record that every node of [box] was just occupied or vacated.
    Call once per {!Grid.occupy}/{!Grid.vacate}, after the mutation.
    @raise Invalid_argument on a snapshot table. *)

val note_node : t -> int -> unit
(** Record a single-node mutation (linear index), e.g. a failure
    takedown or repair. *)

val sync : t -> unit
(** Bring a tracking table up to date now (queries also do this
    lazily). No-op on snapshots and on tables already in sync. *)

val is_stale : t -> bool
(** Whether a tracking table has pending grid changes. Always [false]
    for snapshots. *)

type stats = { full_rebuilds : int; incremental_updates : int }

val stats : t -> stats
(** How often {!sync} recomputed the whole table vs only a dirty
    block, since {!track}. Zero for snapshots. *)

val occupied_in_box : t -> Box.t -> int
(** Number of occupied nodes inside the box. *)

val occupied_in_range : t -> x0:int -> y0:int -> z0:int -> sx:int -> sy:int -> sz:int -> int
(** As {!occupied_in_box} on the box based at [(x0, y0, z0)] with
    extents [(sx, sy, sz)], without allocating the box — the counted
    enumeration's ribbon probes issue hundreds of thousands of these
    per scan, where three records per probe is measurable GC load.
    Extents may reach into the doubled wraparound space (up to
    [2*dim - 1] per axis), like any wrapped box. *)

val box_is_free : t -> Box.t -> bool

val equal : t -> t -> bool
(** Whether two (synced) tables encode identical cumulative sums over
    identical extended spaces — the differential-test oracle for the
    incremental maintenance. *)
