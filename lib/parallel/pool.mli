(** A fixed-size domain pool for embarrassingly-parallel sweeps.

    Worker domains are spawned once by {!create} and reused by every
    {!map_supervised} batch until {!shutdown}, so a long-running
    service never pays a spawn per request and a CLI sweep is one
    batch. Items are claimed from a shared atomic cursor — effectively
    single-item work stealing — so a slow cell (a large simulation)
    never leaves the other domains idle behind a static block
    partition.

    Determinism contract: [map_supervised pool f items] completes each
    item with exactly [f items.(i)] for every pool size, provided each
    [f items.(i)] is self-contained — it must not read mutable state
    another call writes. The simulator's per-scenario RNG derivation
    and the domain-local caches/observability state are designed to
    satisfy this, which is what makes parallel figure sweeps
    bit-identical to sequential ones. *)

type t

val create : domains:int -> t
(** Spawn [domains - 1] worker domains (the submitting thread
    participates in every batch, so total parallelism is [domains];
    with [domains = 1] no domain is spawned and batches run inline).
    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** The [domains] the pool was created with. *)

val map_supervised :
  t ->
  ?policy:Bgl_resilience.Supervise.policy ->
  ?on_complete:(int -> 'b -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b Bgl_resilience.Supervise.outcome array * Bgl_resilience.Supervise.degradation
(** Apply [f] to every item on the pool's domains and return the
    outcomes in item order. Blocks until the whole batch completes;
    one batch runs at a time, and concurrent submitters queue on the
    batch slot. Worker domains inherit the submitter's observability
    configuration ({!Bgl_obs.Runtime.snapshot}) per batch.

    Each item runs under {!Bgl_resilience.Supervise.run} with [policy]
    (default {!Bgl_resilience.Supervise.default}), so a raising item
    is retried with deterministic backoff and, if it keeps failing,
    reported as [Quarantined] instead of killing the sweep — every
    other item still completes and is returned. The degradation
    summary counts completions, retries and quarantines; when the
    ambient {!Bgl_obs.Runtime} registry is live they are also exported
    as [bgl_pool_cells_total{outcome=...}] counters.

    Each attempt passes the item's index to the ["pool.cell"] failpoint
    ({!Bgl_resilience.Failpoint}), so tests and CLIs can deterministically
    fail one chosen cell.

    [on_complete i v] is called as soon as item [i] completes with
    [v], from whichever domain ran it — the hook for incremental
    durability (journaling a sweep cell the moment it finishes, not
    when the whole batch returns). It must be domain-safe and must not
    raise; quarantined items never reach it.

    @raise Invalid_argument if the pool has been {!shutdown}. *)

val shutdown : t -> unit
(** Stop the workers and join them. Idempotent; submitting to a
    shut-down pool raises [Invalid_argument]. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible default for a
    [--jobs] flag's auto mode. *)
