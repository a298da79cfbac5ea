(** Mutable occupancy state of the torus.

    Each supernode is either free or owned by an integer owner id —
    a job id, or a sentinel such as {!down_owner} for a node held out
    of service. The grid enforces the space-sharing constraint: a node
    can never be claimed while already owned (Section 3.3, "only one
    job may run on a given node at a time").

    Occupancy is bit-packed (32 nodes per word), so freeness probes
    stream through a cache-resident bitset even on the full 64×32×32
    machine; owner ids live in a side array consulted only on cold
    paths. A {!Summary} of per-slab free counts is maintained inline:
    once per box for {!occupy}/{!vacate} (O(sx + sy + sz)), once per
    node for {!occupy_node}/{!vacate_node}. *)

type t

val down_owner : int
(** Reserved owner id marking a node as unavailable (repair downtime
    extension). Job ids must be non-negative; [down_owner] is negative
    and distinct from the free marker. *)

val create : ?wrap:bool -> Dims.t -> t
(** A fully free grid. [wrap] (default [true]) selects whether boxes
    may use torus wraparound; it is consulted by the finders through
    {!wrap}. *)

val dims : t -> Dims.t
val wrap : t -> bool

val volume : t -> int
val free_count : t -> int
val busy_count : t -> int

val version : t -> int
(** Total number of single-node mutations (occupies + vacates) applied
    to this grid so far. Monotonic. The finder cache's free-row masks
    use it to tell when to rebuild. *)

val fingerprint : t -> int
(** Occupancy fingerprint: a Zobrist-style xor over the occupied
    nodes. Equal fingerprints mean (with overwhelming probability)
    equal free/occupied sets — owner ids do not contribute — and a
    probe that occupies then vacates a box restores the fingerprint
    exactly, so finder caches keyed on it re-hit after the round trip. *)

val summary : t -> Summary.t
(** The coarse occupancy summary maintained inline by every mutation
    (per-slab free counts). Read-only for callers: the finders use
    {!Summary.shape_feasible} to reject shapes before eroding any
    masks, at every machine size. Mutating the grid through anything but this module's
    operations would desynchronise it. *)

val owner : t -> int -> int option
(** [owner t node] is [Some id] if the node (linear index) is owned. *)

val is_free : t -> int -> bool

val occupied_bits : t -> pos:int -> len:int -> int
(** [occupied_bits t ~pos ~len] packs the occupancy of nodes
    [pos .. pos + len - 1] (linear indices, [1 <= len <= 32]) into an
    int: bit [i] is set iff node [pos + i] is owned. Word-level access
    for bulk readers such as the finder's free-row masks. *)

val box_is_free : t -> Box.t -> bool
(** Whether every node of the box is free. *)

val occupy : t -> Box.t -> owner:int -> unit
(** Claim every node of the box for [owner].
    @raise Invalid_argument if any node is already owned. *)

val vacate : t -> Box.t -> owner:int -> unit
(** Release every node of the box.
    @raise Invalid_argument if some node is not owned by [owner]. *)

val occupy_node : t -> int -> owner:int -> unit
val vacate_node : t -> int -> owner:int -> unit

val owners : t -> int list
(** Sorted distinct owner ids present in the grid. *)

val pp : Format.formatter -> t -> unit
(** z-layer by z-layer ASCII rendering ('.' free, letters for owners). *)
