(** Reproduction of every data figure in the paper's evaluation
    (Section 7). Each function regenerates one plot as a
    {!Series.figure}; {!catalogue} names the full set. Sub-plots
    (a)/(b)/(c) of a paper figure are emitted as separate figures with
    suffixed ids.

    A figure never runs a simulation itself: it reads every report
    through the {!lookup} it is given. {!Sweep.run} hands it one that
    answers from the sweep's own report table.

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

type lookup = Scenario.t -> Bgl_sim.Metrics.report
(** Where a producer reads a scenario's report. *)

type producer = lookup -> scale -> Series.figure list
(** A figure, ablation or baseline study: the unit {!Sweep.run} runs. *)

val find : (string list * producer) list -> string -> producer option
(** [find catalogue id]: the producer one of whose names is [id]
    (case and surrounding blanks ignored). *)

val concat : (string list * producer) list -> producer
(** Every producer of a catalogue, in catalogue order. *)

val avg : lookup -> scale -> (seed:int -> Scenario.t) -> (Bgl_sim.Metrics.report -> float) -> float
(** [avg report scale mk metric]: [metric] averaged over
    [scale.seeds], reading each seed's report through [report] — the
    one point estimate of every figure, ablation and baseline study. *)

val slowdown : Bgl_sim.Metrics.report -> float
(** Average bounded slowdown. *)

val util : Bgl_sim.Metrics.report -> float
(** Utilised fraction of capacity. *)

val intro_claim : lookup -> scale -> Series.figure
(** Section 1's motivating number: slowdown increase of a
    fault-oblivious scheduler at the 1000-failure rate (paper: ≈70%). *)

val fig3 : lookup -> scale -> Series.figure

val fig4 : lookup -> scale -> Series.figure

val fig5 : lookup -> scale -> Series.figure list
(** (a) c=1.0, (b) c=1.2 *)

val fig6 : lookup -> scale -> Series.figure list
(** (a) SDSC, (b) NASA, (c) LLNL *)

val fig7 : lookup -> scale -> Series.figure list

val fig8 : lookup -> scale -> Series.figure list

val fig9 : lookup -> scale -> Series.figure list

val fig10 : lookup -> scale -> Series.figure list

val catalogue : (string list * producer) list
(** Every figure in paper order. The first name is the canonical id
    (["intro"], ["fig3"], ...); the rest are aliases (["1"], ["3"],
    ...). *)
