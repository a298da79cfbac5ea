(** Placement policies: Section 5 of the paper.

    Each constructor returns a {!Bgl_sim.Policy.t} choosing among the
    free candidate partitions the engine found for a job:

    - {!first_fit}: the first candidate in deterministic scan order —
      the cheapest baseline.
    - {!mfp}: Krevat's heuristic — minimise the MFP loss
      L_MFP = MFP(before) − MFP(after placement), i.e. keep the largest
      possible contiguous free partition for subsequent jobs.
    - {!balancing}: Section 5.2.1 — minimise the expected loss
      E_loss = L_MFP + L_PF where L_PF = P_f · s_j and P_f is the
      predicted partition-failure probability over the job's estimated
      duration. Fault-oblivious MFP falls out at confidence 0.
    - {!tie_breaking}: Section 5.2.2 — minimise L_MFP, and break ties
      among equal-L_MFP candidates by preferring partitions the boolean
      predictor expects to survive; if every tied candidate is
      predicted to fail, the choice is arbitrary (first). One argmin
      over 2·L_MFP + [1 if predicted to fail].

    Ties are always resolved toward the earlier candidate in the
    finder's canonical order, so runs are deterministic. *)

open Bgl_sim

val first_fit : Policy.t

val mfp : Policy.t

val balancing :
  ?combine:[ `Product | `Max ] ->
  ?decline_threshold:float ->
  predictor:Bgl_predict.Predictor.t ->
  unit ->
  Policy.t
(** [combine] selects the partition-failure formula (default
    [`Product], the form used in the E_loss derivation; [`Max] is the
    Section 4.1 variant — see DESIGN.md). [decline_threshold], an
    extension, makes the policy refuse placement when even the best
    candidate's E_loss exceeds [threshold · s_j]; the paper's policy
    always places (equivalent to [None]). *)

val tie_breaking : predictor:Bgl_predict.Predictor.t -> unit -> Policy.t

val random : seed:int -> Policy.t
(** Uniform choice among candidates, deterministic in
    [(seed, job id, now)] — a lower-bound baseline showing how much the
    MFP heuristic itself buys. *)

val safest : predictor:Bgl_predict.Predictor.t -> unit -> Policy.t
(** Minimise the predicted partition-failure probability and ignore
    fragmentation entirely — the opposite extreme of {!mfp}, used by
    the policy-zoo ablation to show why the balancing trade-off needs
    both terms. *)

val mfp_loss : Policy.ctx -> Bgl_torus.Box.t -> int
(** The L_MFP of one candidate in a context: [mfp_before] minus
    [Mfp.volume_after] on the context's cache, so every candidate of a
    pass reads one MFP level index and the grid is never mutated.
    Exposed for tests and benches. *)
