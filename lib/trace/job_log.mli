(** Job logs: the workload the simulator replays.

    A log is a sequence of jobs sorted by arrival time. Runtimes are
    the jobs' intrinsic (failure-free) execution times; the simulator
    derives wait/response/slowdown from what actually happens on the
    machine. The scheduler additionally sees a user-supplied runtime
    [estimate] (never smaller than the runtime in our generators),
    which drives backfill reservations and prediction windows. *)

type job = {
  id : int;  (** unique within the log *)
  arrival : float;  (** seconds since log start, non-decreasing *)
  size : int;  (** requested nodes, positive *)
  run_time : float;  (** actual execution time, positive seconds *)
  estimate : float;  (** user estimate, >= run_time in generated logs *)
}

type t = { name : string; jobs : job array }

val make : name:string -> job list -> t
(** Sorts by [(arrival, id)] and validates: positive sizes, finite
    positive runtimes and estimates, finite non-negative arrivals
    (NaN fails every check), unique ids.
    @raise Invalid_argument on violation. *)

val length : t -> int
val span : t -> float
(** [max (arrival + run_time)] over jobs minus [min arrival]; 0 for an
    empty log. A lower bound on the simulated makespan. *)

val total_work : t -> float
(** Σ size·run_time in node-seconds. *)

val offered_load : t -> nodes:int -> float
(** [total_work / (span * nodes)]: the utilisation the log would induce
    on a machine with [nodes] nodes and no scheduling loss. *)

val scale_runtime : t -> c:float -> t
(** The paper's load-scale coefficient: multiply every run time and
    estimate by [c] (Section 6.2). Renames the log with a ["@c"]
    suffix. *)

val filter_max_size : t -> max_size:int -> t
(** Drop jobs requesting more than [max_size] nodes (jobs bigger than
    the machine cannot be scheduled). *)

val max_size : t -> int
val pp_stats : Format.formatter -> t -> unit
