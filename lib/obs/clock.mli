(** The one real-time source: monotonic seconds for measuring a run.

    Simulated time never comes from here. Spans, heartbeats, budget
    deadlines and the CLIs' wall-time reports read {!now}; nothing
    else in the tree reads a clock. *)

val now : unit -> float
(** Seconds on CLOCK_MONOTONIC, from an arbitrary origin: only
    differences mean anything, and a wall-clock step never moves it. *)

val with_fake : step:float -> (unit -> 'a) -> 'a
(** [with_fake ~step f] runs [f] with a fake clock on the current
    domain: its k-th {!now} returns [k *. step]. Other domains keep
    the real clock, and the previous clock is restored on exit.
    Tests only. *)
