(** Checkpointing models (the paper's first future-work item).

    With no checkpointing — the paper's experimental setting — a job
    killed by a failure restarts from the beginning. A checkpoint
    policy persists completed work at intervals, at a wall-clock
    [overhead] per checkpoint during which the partition is held but no
    useful work is done.

    [Adaptive] is the prediction-coupled variant the paper proposes:
    runs placed on partitions the predictor flags as doomed checkpoint
    at [risky_interval], all others at [safe_interval]. *)

type spec =
  | Periodic of { interval : float; overhead : float }
  | Adaptive of { risky_interval : float; safe_interval : float; overhead : float }

val validate : spec -> unit
(** @raise Invalid_argument on intervals that are not positive and
    finite, or an overhead that is negative, infinite or NaN. *)

val interval_for : spec -> risky:bool -> float
(** The checkpoint interval a run uses. *)

val overhead : spec -> float

val checkpoints_for_work : interval:float -> work:float -> int
(** Number of checkpoints taken while executing [work] seconds of
    useful computation: one after every full [interval], except that no
    checkpoint is taken at the very end of the job. *)

val wall_time : interval:float -> overhead:float -> work:float -> float
(** Wall-clock duration of a failure-free run doing [work] seconds of
    computation: [work + checkpoints * overhead]. *)

val checkpoints_completed : interval:float -> overhead:float -> work:float -> elapsed:float -> int
(** Checkpoints that fully completed within the first [elapsed]
    wall-clock seconds of a run doing [work] seconds of computation —
    the credit calculation behind the engine's per-kill checkpoint
    accounting (work persisted = this many intervals). *)

val young_interval : mtbf:float -> overhead:float -> float
(** Young's first-order optimal checkpoint interval,
    [sqrt (2 * overhead * mtbf)] — the classical rule of thumb the
    checkpoint ablation compares against. Both arguments must be
    positive. *)

val mtbf_of_failures : events:int -> span:float -> nodes_per_job:float -> volume:int -> float
(** Mean time between failures {e as seen by one job}: a trace with
    [events] failures over [span] seconds on a [volume]-node machine
    hits a partition of [nodes_per_job] nodes every
    [span * volume / (events * nodes_per_job)] seconds on average. *)
