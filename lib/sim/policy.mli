(** Placement-policy interface.

    The engine owns the queue discipline (FCFS with optional EASY
    backfilling and migration); a policy only chooses {e which} of the
    free candidate partitions a job should occupy — this is where the
    paper's baseline MFP heuristic, balancing algorithm and
    tie-breaking algorithm differ. Concrete policies live in
    [Bgl_sched.Placement]. *)

open Bgl_torus

type ctx = {
  now : float;
  grid : Grid.t;
      (** current occupancy; policies may probe it (e.g. via
          [Mfp.volume_after], which restores the grid) but must leave
          it unchanged *)
  cache : Bgl_partition.Finder.Cache.t;
      (** a finder cache bound to [grid]: the engine's own when it
          built the context, else a fresh one — policies thread it into
          [Mfp] probes so MFP searches reuse its incremental
          summed-area table *)
  mfp_before : int Lazy.t;  (** MFP volume before the placement *)
  mfp_boxes : Box.t list Lazy.t;
      (** all free boxes achieving [mfp_before] — lets policies skip
          the expensive MFP recomputation for candidates that do not
          intersect every maximal box *)
}

type t = {
  name : string;
  choose :
    ctx -> job:Bgl_trace.Job_log.job -> volume:int -> candidates:Box.t list -> Box.t option;
      (** [None] declines placement (the job keeps waiting) — with a
          non-empty candidate list only threshold-style policies do
          this. *)
}

val make_ctx : ?cache:Bgl_partition.Finder.Cache.t -> now:float -> Grid.t -> ctx
(** Build a context with lazily computed MFP data, served from (and
    memoised in) [cache] when it is bound to [grid], else in a fresh
    [Finder.Cache.create grid]. *)
