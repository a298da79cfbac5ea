(** The Krevat-baseline study: what the substrate scheduler (FCFS,
    EASY backfilling, migration — Krevat et al., JSSPP 2002) buys on
    each workload {e before} any fault-awareness. The fault-aware paper
    builds directly on these results; regenerating them validates the
    substrate against its own source.

    Each figure sweeps the three scheduler variants over the three
    workload profiles, with and without failures. *)

val slowdown : Figures.lookup -> Figures.scale -> Series.figure
(** Avg bounded slowdown of plain FCFS / +backfilling / +migration per
    profile (failure-free). *)

val utilisation : Figures.lookup -> Figures.scale -> Series.figure
(** Utilised capacity for the same grid. *)

val under_failures : Figures.lookup -> Figures.scale -> Series.figure
(** The same three variants on SDSC with the profile's failure count —
    scheduling throughput still dominates fault losses. *)

val catalogue : (string list * Figures.producer) list
(** The three studies above, in that order, named by figure id. *)
