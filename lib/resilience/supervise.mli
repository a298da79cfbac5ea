(** Supervised execution of independent work items.

    {!run} executes one attempt-loop: exceptions become structured
    outcomes instead of propagating, transient failures are retried
    with bounded attempts and deterministic backoff, and repeated
    failure quarantines the item. {!Pool.map_supervised} applies it to
    every cell of a sweep and reports partial results plus a
    {!degradation} summary.

    {!Budget.Budget_exceeded} is permanent by default — a cell that
    ran out of fuel deterministically will again — while any other
    exception (injected faults included) is considered transient and
    retried. *)

type error = {
  message : string;  (** printable form of the final exception *)
  attempts : int;  (** attempts consumed *)
  transient : bool;  (** the final failure was retryable, just out of attempts *)
}

type 'a outcome = Completed of { value : 'a; attempts : int } | Quarantined of error

type policy = {
  max_attempts : int;  (** >= 1 *)
  backoff : int -> float;
      (** seconds to wait after failed attempt [n] (1-based) before
          attempt [n+1]; deterministic in [n] *)
  sleep : float -> unit;  (** injectable for tests; [Unix.sleepf] by default *)
  retryable : exn -> bool;
  budget : (unit -> Budget.t) option;
      (** a fresh budget installed around each attempt *)
}

val exponential : base:float -> int -> float
(** [base *. 2.^(n-1)] — the default backoff curve. *)

val default : policy
(** 3 attempts, exponential backoff from 50 ms, everything but
    [Budget_exceeded] retryable, no budget. *)

val run : policy -> (unit -> 'a) -> 'a outcome

(* ------------------------------------------------------------------ *)

type degradation = {
  total : int;
  completed : int;
  retried : int;  (** items that completed but needed more than one attempt *)
  quarantined : (int * error) list;  (** item index, in item order *)
}

val degradation_of : 'a outcome array -> degradation
val degraded : degradation -> bool
val pp_degradation : Format.formatter -> degradation -> unit
