(** Ablation experiments for the design choices DESIGN.md calls out —
    knobs the paper fixes, leaves ambiguous, or defers to future work.
    Each returns figures in the same format as the paper reproductions
    and reads its reports through a {!Figures.lookup}, so {!Sweep.run}
    runs them like any figure. *)

val combine_rule : Figures.lookup -> Figures.scale -> Series.figure
(** Section 4.1 vs 5.2.1 ambiguity: partition failure probability as
    [max p_n] vs [1 - prod (1 - p_n)] in the balancing algorithm. *)

val false_positives : Figures.lookup -> Figures.scale -> Series.figure
(** The paper drops false positives from the analysis; this measures
    tie-breaking with p_f+ in {0, 0.05, 0.1, 0.2}. *)

val checkpointing : Figures.lookup -> Figures.scale -> Series.figure
(** Future-work item 1: periodic checkpoint interval sweep under the
    fault-oblivious scheduler (no-checkpoint baseline included). *)

val adaptive_checkpointing : Figures.lookup -> Figures.scale -> Series.figure
(** Prediction-coupled checkpoint intervals vs fixed periodic, across
    predictor accuracy. *)

val backfilling : Figures.lookup -> Figures.scale -> Series.figure
(** FCFS with and without EASY backfilling, with and without faults. *)

val migration : Figures.lookup -> Figures.scale -> Series.figure
(** Krevat's migration option on/off under the balancing policy. *)

val failure_model : Figures.lookup -> Figures.scale -> Series.figure
(** Bursty + node-skewed failure traces (our default, modelled on the
    source logs) vs a uniform Poisson strawman, under fault-oblivious
    and balancing scheduling. *)

val repair_time : Figures.lookup -> Figures.scale -> Series.figure
(** Node downtime after failure in {0 (paper), 10 min, 1 h}. *)

val candidate_cap : Figures.lookup -> Figures.scale -> Series.figure
(** Placement-candidate subsampling cap vs full enumeration: solution
    quality (slowdown) as a function of the cap. *)

val history_predictor : Figures.lookup -> Figures.scale -> Series.figure
(** Honest prediction: the balancing algorithm driven by the
    history-only EWMA predictor ({!Bgl_predict.History}) across
    decision thresholds, against the fault-oblivious baseline and the
    paper's simulated-confidence predictor. *)

val policy_zoo : Figures.lookup -> Figures.scale -> Series.figure
(** Every placement policy under the same faulty workload: random,
    first-fit, MFP, safest (stability-only), balancing, tie-breaking —
    how much each ingredient of the paper's design buys. *)

val catalogue : (string list * Figures.producer) list
(** Every ablation, one figure each, named by its figure id
    (["ablate-combine"], ...) and its short aliases (["combine"], ...). *)
