open Bgl_stats

type spec = {
  n_events : int;
  span : float;
  volume : int;
  burst_mean_size : float;
  burst_jitter : float;
  node_skew : float;
  seed : int;
}

let default ~span ~volume ~n_events ~seed =
  { n_events; span; volume; burst_mean_size = 3.; burst_jitter = 30.; node_skew = 1.4; seed }

let validate spec =
  if spec.n_events < 0 then invalid_arg "Generator: negative n_events";
  if not (Float.is_finite spec.span && spec.span > 0.) then
    invalid_arg "Generator: span must be positive and finite";
  if spec.volume <= 0 then invalid_arg "Generator: volume must be positive";
  if not (Float.is_finite spec.burst_mean_size && spec.burst_mean_size >= 1.) then
    invalid_arg "Generator: burst_mean_size must be finite and >= 1";
  if not (Float.is_finite spec.burst_jitter && spec.burst_jitter >= 0.) then
    invalid_arg "Generator: burst_jitter must be finite and >= 0";
  if not (spec.node_skew >= 0.) then invalid_arg "Generator: node_skew must be >= 0"

(* The last Zipf table built. It depends only on (volume, skew), and a
   sweep draws many traces for one machine, so one entry is enough.
   The table is published whole and never mutated afterwards: domains
   that race to replace the cell each read a complete table. *)
type zipf = { n : int; skew : float; table : float array }

let last_zipf : zipf option Atomic.t = Atomic.make None

let zipf_table ~n ~skew =
  match Atomic.get last_zipf with
  | Some z when z.n = n && Float.equal z.skew skew -> z.table
  | Some _ | None ->
      let table = Dist.zipf_weights ~n ~skew in
      Atomic.set last_zipf (Some { n; skew; table });
      table

(* The permutation and node-weight arrays of the last trace this domain
   generated, reused by the next trace of the same volume: at 64x32x32
   each is 512 KB, and allocating both afresh per trace cost more than
   filling them. Every cell is overwritten before it is read, so no
   trace sees another's values. Domain-local, so parallel sweeps never
   share a buffer. *)
type scratch = { mutable perm : int array; mutable node_weights : float array }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { perm = [||]; node_weights = [||] })

let scratch volume =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.perm <> volume then begin
    s.perm <- Array.make volume 0;
    s.node_weights <- Array.make volume 0.
  end;
  s

let generate spec =
  validate spec;
  let master = Rng.create ~seed:spec.seed in
  let time_rng = Rng.split master ~label:"times" in
  let node_rng = Rng.split master ~label:"nodes" in
  (* Per-node propensity: Zipf over a random permutation, so the flaky
     nodes are scattered across the torus rather than clustered at
     index 0. *)
  let weights = zipf_table ~n:spec.volume ~skew:spec.node_skew in
  let { perm; node_weights } = scratch spec.volume in
  for i = 0 to spec.volume - 1 do
    perm.(i) <- i
  done;
  Rng.shuffle node_rng perm;
  for rank = 0 to spec.volume - 1 do
    node_weights.(perm.(rank)) <- weights.(rank)
  done;
  let sample = Dist.sampler_in_place node_weights in
  let draw_node () = sample node_rng in
  (* Bursts until the event budget is spent; the last burst is trimmed,
     so the count is exact. *)
  let p_burst = 1. /. spec.burst_mean_size in
  let events = ref [] in
  let remaining = ref spec.n_events in
  while !remaining > 0 do
    let burst_time = Rng.float time_rng spec.span in
    let burst_size = min !remaining (Dist.geometric time_rng ~p:p_burst) in
    for _ = 1 to burst_size do
      let time = Float.min spec.span (burst_time +. Rng.float time_rng spec.burst_jitter) in
      events := { Bgl_trace.Failure_log.time; node = draw_node () } :: !events
    done;
    remaining := !remaining - burst_size
  done;
  let name =
    Printf.sprintf "synth-failures(n=%d,span=%.0f,seed=%d)" spec.n_events spec.span spec.seed
  in
  Bgl_trace.Failure_log.make ~name !events

let poisson_uniform ~span ~volume ~n_events ~seed =
  let spec =
    { n_events; span; volume; burst_mean_size = 1.; burst_jitter = 0.; node_skew = 0.; seed }
  in
  let log = generate spec in
  { log with name = Printf.sprintf "uniform-failures(n=%d,seed=%d)" n_events seed }
