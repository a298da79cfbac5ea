(** Fault predictors (Section 4 of the paper).

    A predictor answers two kinds of query about the window
    [(now, now + horizon\]]:

    - a {b probability} that a given node fails in the window (used by
      the balancing algorithm's L_PF term), and
    - a {b boolean} "will this node fail?" (used by the tie-breaking
      algorithm).

    As in the paper, predictors are simulated against the failure log
    itself rather than running a real prediction model: the quality
    knob [a] is the {e confidence} attached to true upcoming failures
    (balancing predictor, Section 4.1) or the {e accuracy}
    [1 - p_false_negative] of the boolean answer (tie-breaking
    predictor, Section 4.2). Boolean answers are deterministic
    functions of (seed, node, failure event), so repeated queries about
    the same upcoming failure are consistent. *)

type t = {
  name : string;
  node_prob : node:int -> now:float -> horizon:float -> float;
  node_will_fail : node:int -> now:float -> horizon:float -> bool;
}

val null : t
(** Predicts nothing: probability 0, never "yes". Fault-oblivious
    scheduling (the a = 0 baseline). *)

val check_param : string -> float -> unit
(** [check_param what v] raises [Invalid_argument] unless [v] is in
    [\[0, 1\]] (so NaN is rejected): the check {!balancing} and
    {!tie_breaking} make of their quality parameter, named [what] in
    the message. *)

val balancing : confidence:float -> Failure_index.t -> t
(** Section 4.1: probability [confidence] if the log has a failure for
    the node in the window, else 0. The boolean view answers
    [confidence > 0 && failure-in-window]. *)

val tie_breaking : accuracy:float -> seed:int -> Failure_index.t -> t
(** Section 4.2: if the log has a failure in the window, answers "yes"
    with probability [accuracy] (i.e. false-negative rate
    [1 - accuracy]); no false positives. The probability view returns
    1 or 0 according to the boolean answer. *)

val oracle : Failure_index.t -> t
(** Perfect prediction: [tie_breaking ~accuracy:1.] /
    [balancing ~confidence:1.] semantics. *)

val noisy : accuracy:float -> false_positive:float -> seed:int -> Failure_index.t -> t
(** Extension beyond the paper (which argues p_f+ stays below p_f−/2
    and ignores it): like {!tie_breaking} but additionally answers a
    spurious "yes" with probability [false_positive] when no failure is
    coming. False positives are resampled per hour-bucket of the query
    window so they are stable for nearby queries. *)

val partition_prob :
  t -> combine:[ `Product | `Max ] -> nodes:int list -> now:float -> horizon:float -> float
(** Partition failure probability from per-node probabilities:
    [`Product] is Section 5.2.1's [1 - Π (1 - p_n)]; [`Max] is Section
    4.1's [max p_n]. *)

val partition_will_fail : t -> nodes:int list -> now:float -> horizon:float -> bool
(** Whether any node of the partition is predicted to fail. *)
