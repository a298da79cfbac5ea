(** Simulation configuration.

    {!default} reproduces the paper's experimental setting (Section 6):
    the 4×4×8 BG/L supernode torus with wraparound, FCFS with
    backfilling, transient failures with zero repair time, and no
    checkpointing. *)

open Bgl_torus

type t = {
  dims : Dims.t;
  wrap : bool;
  backfill : bool;
  backfill_depth : int;  (** max queued jobs examined per backfill pass *)
  candidate_cap : int option;
      (** evaluate at most this many candidate partitions per placement
          (evenly subsampled, deterministic); [None] = all. Bounds the
          cost of the MFP heuristic on busy tori. *)
  migration : bool;
      (** when the queue head cannot be placed, try re-packing running
          jobs (largest first) to defragment the torus — Krevat's
          migration option. Checkpoint/restart cost of the moves is
          [migration_overhead] wall seconds added to each moved job. *)
  migration_overhead : float;
  repair_time : float;
      (** node downtime after a failure; 0 = the paper's instant
          recovery assumption *)
  checkpoint : Checkpoint.spec option;
  slowdown_tau : float;  (** Γ of the bounded-slowdown metric *)
  drop_oversize : bool;
      (** silently drop jobs larger than the torus (otherwise raise) *)
}

val default : t

val validate : t -> unit
(** @raise Invalid_argument on inconsistent settings, including a
    repair time, migration overhead or slowdown threshold that is
    NaN or infinite, and an invalid checkpoint spec. *)
