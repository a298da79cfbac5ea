(** Cooperative deadlines: a fuel and/or real-time budget that
    long-running computations check at their loop boundaries.

    A budget is installed for the dynamic extent of a computation
    ({!with_budget}); the simulator's event loop and the partition
    finders call {!check} at each iteration, and the first check past
    the limit raises {!Budget_exceeded}. Supervision
    ({!Supervise.run}) converts the exception into a quarantined cell
    instead of a hung or runaway sweep.

    The installed budget is domain-local, so parallel sweep cells each
    get their own — a fresh budget per cell attempt, never shared
    state across domains. Checks are one domain-local load when no
    budget is installed. *)

exception Budget_exceeded of { site : string; detail : string }
(** Raised by {!check} at [site] when the installed budget is spent. *)

type t

val make : ?fuel:int -> ?deadline:float -> unit -> t
(** [fuel] bounds the number of {!check} calls (simulation events,
    enumeration passes); [deadline] bounds monotonic seconds
    ({!Bgl_obs.Clock.now}) from installation, so a wall-clock step
    never moves it. At least one must be given.
    @raise Invalid_argument if neither is given or either is <= 0. *)

val with_budget : t option -> (unit -> 'a) -> 'a
(** Install the budget (restarting its fuel counter and deadline
    clock) for the call's dynamic extent, restoring the previous
    installation on exit. [None] leaves the current installation in
    place, so nested budget-less layers never mask an outer budget. *)

val check : site:string -> unit
(** Burn one unit of the installed fuel, and every 256 calls compare
    the clock against the deadline. No-op when nothing is installed.
    @raise Budget_exceeded when the budget is spent. *)
