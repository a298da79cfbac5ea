(** Schedule timelines reconstructed from a {!Bgl_sim.Recorder} trace.

    Turns the raw event stream into per-job segments (which partition a
    job held, from when to when, and how the tenancy ended) and renders
    machine-utilisation strips — the textual equivalent of the Gantt
    charts scheduling papers draw. Used by `bgl-sim --timeline` and
    `examples/schedule_forensics.exe`. *)

open Bgl_torus

type ending =
  | Finished
  | Killed of int  (** the node whose failure ended the tenancy *)
  | Migrated
  | Truncated
      (** the trace ended while the job was still running; the segment
          ends at the time of the trace's last entry *)

type segment = {
  job : int;
  box : Box.t;
  started : float;
  ended : float;
  ending : ending;
}

val segments : Bgl_sim.Recorder.t -> segment list
(** One segment per (job, tenancy), in start order. A kill, migration
    or finish closes the current tenancy of that job. *)

val busy_profile : segment list -> buckets:int -> span:float -> float array
(** Fraction of node-time covered by segments in each of [buckets]
    equal slices of [\[0, span\]], with node counts from each segment's
    box volume, normalised by [volume]... the caller supplies the
    machine volume through {!render}; this returns raw node-seconds per
    bucket. *)

val render : segment list -> volume:int -> width:int -> string
(** ASCII utilisation strip: one character per time slice, ' ' (idle)
    through '#' (full). Empty segments render an empty strip. *)

val utilisation_of_segments : segment list -> volume:int -> float
(** Busy node-seconds over volume × observed span; 0 for no segments. *)
