open Bgl_torus

type run = {
  box : Box.t;
  started : float;
  finish_time : float;
  generation : int;
  work_at_start : float;
  interval : float option;
}

type state = Queued | Running of run | Completed

type t = {
  spec : Bgl_trace.Job_log.job;
  volume : int;
  mutable state : state;
  mutable generation : int;
  mutable remaining : float;
  mutable restarts : int;
  mutable first_start : float option;
  mutable completion : float option;
  mutable lost_node_seconds : float;
  mutable checkpoints_taken : int;
}

let create (spec : Bgl_trace.Job_log.job) ~volume =
  if volume < spec.size then invalid_arg "Job.create: volume smaller than requested size";
  {
    spec;
    volume;
    state = Queued;
    generation = 0;
    remaining = spec.run_time;
    restarts = 0;
    first_start = None;
    completion = None;
    lost_node_seconds = 0.;
    checkpoints_taken = 0;
  }

(* ------------------------------------------------------------------ *)
(* Lifecycle protocol. [transition] is the one blessed mutation point
   for [state] — the typed lint rule R10 fails the build on any other
   write — so the legality table below is the whole reachable state
   machine: queued jobs start; running jobs migrate, complete, or are
   killed back to queued. Completed is terminal. *)

type edge = Start of run | Migrate of run | Complete | Kill

exception Illegal_transition of { job : int; edge : string; state : string }

let state_label = function Queued -> "queued" | Running _ -> "running" | Completed -> "completed"

let edge_label = function
  | Start _ -> "start"
  | Migrate _ -> "migrate"
  | Complete -> "complete"
  | Kill -> "kill"

let legal state edge =
  match (state, edge) with
  | Queued, Start _ -> true
  | Running _, (Migrate _ | Complete | Kill) -> true
  | Queued, (Migrate _ | Complete | Kill) | Running _, Start _ | Completed, _ -> false

(* Every accepted transition is counted per edge; with the default
   noop registry this is one branch. *)
let emit_transition edge =
  let reg = Bgl_obs.Runtime.registry () in
  if not (Bgl_obs.Registry.is_noop reg) then
    Bgl_obs.Registry.inc
      (Bgl_obs.Registry.counter reg ~help:"accepted job lifecycle transitions, by edge"
         (Printf.sprintf "bgl_job_transitions_total{edge=%S}" (edge_label edge)))

let transition t edge =
  if not (legal t.state edge) then
    raise
      (Illegal_transition { job = t.spec.id; edge = edge_label edge; state = state_label t.state });
  (match edge with
  | Start r | Migrate r -> t.state <- Running r
  | Complete -> t.state <- Completed
  | Kill -> t.state <- Queued);
  emit_transition edge

let is_completed t = t.state = Completed
let current_run t = match t.state with Running r -> Some r | Queued | Completed -> None

let wait_time t =
  match t.first_start with
  | Some s -> s -. t.spec.arrival
  | None -> invalid_arg "Job.wait_time: job never started"

let response_time t =
  match t.completion with
  | Some f -> f -. t.spec.arrival
  | None -> invalid_arg "Job.response_time: job not completed"

let bounded_slowdown ?(tau = 10.) t =
  Float.max (response_time t) tau /. Float.max t.spec.run_time tau
