(** The event-driven simulator (Section 6.1 of the paper).

    The engine replays a job log against a failure log on a torus
    occupancy grid. Events are arrivals, run completions, node
    failures, node repairs (downtime extension) — checkpoints are
    folded into run wall times. The queue discipline is FCFS; when the
    queue head cannot be placed the engine optionally backfills later
    jobs under an EASY-style spatial reservation (never delaying the
    head's earliest estimated start), and optionally migrates running
    jobs to defragment the torus. Placement decisions among candidate
    partitions are delegated to a {!Policy.t}.

    A run owns one grid and one {!Bgl_partition.Finder.Cache} over it.
    The reservation (which box the head could take once running jobs
    end at their estimates) and the migration repack are worked out in
    that cache's what-if scratch ({!Bgl_partition.Finder.Cache.what_if}),
    so neither copies the grid nor builds a second cache. The
    reservation starts from the head's own failed placement: a head
    its policy declined reserves nothing, and only a head with no free
    box has its running jobs released.

    Failure semantics follow the paper: failures are transient; a
    failure on a node occupied by a job kills the whole job, whose
    unsaved work is lost and which is requeued with its original
    arrival priority; the node is immediately reusable (unless a
    non-zero repair time is configured). *)

type outcome = {
  name : string;
  report : Metrics.report;
  jobs : Job.t array;  (** final state of every admitted job *)
  dropped_jobs : int;  (** jobs larger than the torus, dropped at ingest *)
  complete : bool;  (** every admitted job completed *)
}

val run :
  ?config:Config.t ->
  ?predictor:Bgl_predict.Predictor.t ->
  ?recorder:Recorder.t ->
  ?budget:Bgl_resilience.Budget.t ->
  ?run_id:string ->
  ?seed:int ->
  policy:Policy.t ->
  log:Bgl_trace.Job_log.t ->
  failures:Bgl_trace.Failure_log.t ->
  unit ->
  outcome
(** Run the simulation to completion. [predictor] (default
    {!Bgl_predict.Predictor.null}) is only consulted by the engine for
    adaptive checkpointing risk decisions; placement policies carry
    their own predictor. A [recorder] receives every lifecycle
    transition for post-hoc analysis.

    [run_id] tags every streamed trace line with a ["run"] member so
    concurrent runs sharing one trace writer (a parallel sweep) can be
    demultiplexed; it defaults to a digest of the run's inputs. [seed]
    is provenance only, copied verbatim into the trace's [run_meta]
    header (sweep scenarios pass their generator seed).

    [budget] installs a cooperative fuel/deadline budget for the run
    (see {!Bgl_resilience.Budget}): the event loop burns one fuel unit
    per event and the partition finders one per enumeration, so a
    pathological run raises [Budget_exceeded] at the next boundary
    instead of hanging. Without [budget], any budget already installed
    by the caller (e.g. a supervised sweep cell) still applies.

    @raise Bgl_resilience.Budget.Budget_exceeded when the installed
    budget is spent.
    @raise Invalid_argument on an invalid config, a failure log that
    references nodes outside the torus, or (with
    [config.drop_oversize = false]) a job larger than the torus. *)
