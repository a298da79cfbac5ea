(** Reproduction of every data figure in the paper's evaluation
    (Section 7). Each function regenerates one plot as a
    {!Series.figure}; {!all} runs the full set. Sub-plots (a)/(b)/(c)
    of a paper figure are emitted as separate figures with suffixed
    ids.

    X axes use the paper's units: failure counts on the paper's scale
    (converted internally to preserve failures-per-job, see
    {!Scenario}), prediction confidence/accuracy in [0, 1], and the
    load coefficients c = 1.0 / 1.2. *)

type scale = {
  n_jobs : int;  (** synthetic jobs per simulation *)
  seeds : int list;  (** replications averaged per point *)
  a_values : float list;  (** confidence/accuracy grid *)
  fail_fracs : float list;  (** fractions of the per-log max failure count *)
  dims : Bgl_torus.Dims.t;
      (** machine size every scenario runs on (the [--dims] flag);
          {!quick}/{!full} default to the paper's 4×4×8 supernode
          torus *)
}

val quick : scale
(** 1500 jobs, two seeds: minutes for the full set. The default for
    [bgl-sweep]. *)

val full : scale
(** 3000 jobs, three seeds, the paper's full 0.1-step grids. *)

val intro_claim : scale -> Series.figure
(** Section 1's motivating number: slowdown increase of a
    fault-oblivious scheduler at the 1000-failure rate (paper: ≈70%). *)

val fig3 : scale -> Series.figure

val fig4 : scale -> Series.figure

val fig5 : scale -> Series.figure list
(** (a) c=1.0, (b) c=1.2 *)

val fig6 : scale -> Series.figure list
(** (a) SDSC, (b) NASA, (c) LLNL *)

val fig7 : scale -> Series.figure list

val fig8 : scale -> Series.figure list

val fig9 : scale -> Series.figure list

val fig10 : scale -> Series.figure list

val by_id : string -> (scale -> Series.figure list) option
(** Lookup by ["3"], ["fig3"], ["intro"], ... *)

val all : scale -> Series.figure list
(** Every figure, in paper order. Called directly it simulates
    sequentially; {!Sweep.run} runs it with the cells on a domain pool. *)

val producers : (string * (scale -> Series.figure list)) list
(** The figures as named producers, in paper order; {!all}
    concatenates them and every name resolves through {!by_id}. *)

val cached_report : Scenario.t -> Bgl_sim.Metrics.report
(** Run a scenario through the shared memo table (used by the ablation
    suite so overlapping sweep points are simulated once). *)

val cells_of : (scale -> Series.figure list) -> scale -> Scenario.t array
(** The distinct scenario cells [f scale] would simulate, discovered
    by the collect pass (simulation stubbed out), minus any already in
    the memo table — the unit of work {!Sweep} journals and
    supervises. *)

val install_report : Scenario.t -> Bgl_sim.Metrics.report -> unit
(** Install a report in the memo table, so a subsequent producer run
    replays it instead of simulating (journal resume, cells simulated
    on the pool). Call from the main domain only. *)

val placeholder_report : Bgl_sim.Metrics.report
(** The all-zero report the collect pass answers with; {!Sweep}
    installs it for quarantined cells so a degraded sweep can still
    emit its remaining figures. *)

val clear_cache : unit -> unit
(** Figures share scenario runs through a memo table; clear it to force
    re-simulation (e.g. between scales in one process). *)
