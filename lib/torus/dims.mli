(** Dimensions of a three-dimensional torus of supernodes.

    The job scheduler sees BlueGene/L as a 4×4×8 torus of 128
    supernodes (Section 3.1 of the paper); {!bgl} is that machine.
    All torus code is parametric in the dimensions so tests and benches
    can use other machine sizes. *)

type t = private { nx : int; ny : int; nz : int }

val make : int -> int -> int -> t
(** [make nx ny nz]. All dimensions must be positive. *)

val bgl : t
(** The 4×4×8 supernode torus of BlueGene/L. *)

val bgl_full : t
(** The full 64×32×32 node torus of BlueGene/L (65,536 compute
    nodes) — the machine the paper's scheduling claims are about. *)

val volume : t -> int
(** Total number of supernodes, [nx * ny * nz]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses ["4x4x8"] or ["64,32,32"] (the [--dims] flag syntax). *)
