(** Crash-safe, supervised figure sweeps — the one way a figure
    producer runs.

    {!run} owns one report table per call. It runs the producer once
    with every lookup answering the all-zero placeholder, which yields
    the distinct scenario cells in first-asked order; restores
    journaled cells into the table; simulates the rest on a domain
    pool, filling the table from the calling domain; and replays the
    producer with a lookup into the table. Nothing outlives the call,
    so two sweeps in one process never share a report. Scenario runs
    are deterministic in the scenario value, so the figures are
    bit-identical for every pool size. The simulation pass runs under
    the resilience machinery:

    - each completed cell is appended to a {!Bgl_resilience.Journal}
      as one fsync'd JSONL record keyed by the cell {!fingerprint}, so
      a SIGKILL mid-sweep loses at most the cells in flight;
    - [`Resume journal] restores journaled cells into the sweep's
      table (reports round-trip bit-exactly) and simulates only the
      rest, then keeps appending to the same journal;
    - cells run under {!Bgl_parallel.Pool.map_supervised}: a raising
      cell is retried and, failing that, quarantined — the sweep
      completes the remaining cells and reports the degradation
      instead of dying.

    Quarantined cells are {e not} journaled; their figure points read
    the all-zero placeholder so partial output still renders, and the
    caller is expected to exit non-zero (see {!degraded_error}). *)

type journal_mode =
  | No_journal
  | Fresh of string  (** write a new journal at this path (truncates) *)
  | Resume of string  (** restore from this journal, append new cells to it *)

type cell_failure = {
  label : string;  (** {!Scenario.label} of the quarantined cell *)
  fingerprint : string;
  error : Bgl_resilience.Supervise.error;
}

type outcome = {
  figures : Series.figure list;
  simulated : int;  (** cells simulated in this process *)
  replayed : int;  (** cells restored from the journal *)
  journal_dropped : int;  (** journal lines dropped as truncated/corrupt *)
  quarantined : cell_failure list;
  degradation : Bgl_resilience.Supervise.degradation;
}

val fingerprint : Scenario.t -> string
(** Hex digest of the scenario's {!Scenario.label} — which spells out
    profile, load, failure intensity, algorithm, seed and the config
    hash — the journal record key. *)

val run :
  ?policy:Bgl_resilience.Supervise.policy ->
  ?journal:journal_mode ->
  ?on_cell:(Scenario.t -> Bgl_sim.Metrics.report -> unit) ->
  pool:Bgl_parallel.Pool.t ->
  Figures.producer ->
  Figures.scale ->
  (outcome, Bgl_resilience.Error.t) result
(** [Error] covers journal I/O failures (unreadable resume file,
    failed append); cell failures are never an [Error] — they come
    back as [quarantined]. The producer must ask for the same cells on
    both passes: a replay lookup of a cell the collect pass never saw
    raises [Invalid_argument] naming its label.

    [pool] runs the cells; its size is the sweep's parallelism and
    never changes the output. [on_cell] is invoked
    for every cell right after it completes and is journaled, from
    whichever domain ran it (must be domain-safe and must not raise) —
    the hook for streaming per-cell progress to a client. *)

val degraded_error : outcome -> Bgl_resilience.Error.t option
(** [Some (Degraded ...)] naming the quarantined cells when the sweep
    was degraded, for the CLI's exit path. *)
