open Bgl_stats

type spec = {
  profile : Profile.t;
  n_jobs : int;
  max_nodes : int;
  seed : int;
}

let day = 86_400.

(* Offered load = rate * E[size * runtime] / nodes, so the base rate for a
   target utilisation is target * nodes / (E[size] * E[runtime]). The
   runtime cap is ignored in the expectation; the cap only trims the
   extreme tail, and tests check the realised load empirically. *)
let arrival_rate (p : Profile.t) ~max_nodes =
  let work = Profile.mean_size p ~max_nodes *. Profile.mean_runtime p in
  p.target_util *. float_of_int max_nodes /. work

let generate spec =
  let p = spec.profile in
  if spec.n_jobs <= 0 then invalid_arg "Synthetic.generate: n_jobs must be positive";
  if spec.max_nodes <= 0 then invalid_arg "Synthetic.generate: max_nodes must be positive";
  let master = Rng.create ~seed:spec.seed in
  let arrival_rng = Rng.split master ~label:"arrivals" in
  let size_rng = Rng.split master ~label:"sizes" in
  let runtime_rng = Rng.split master ~label:"runtimes" in
  let estimate_rng = Rng.split master ~label:"estimates" in
  let sizes = Profile.sizes_for p ~max_nodes:spec.max_nodes in
  let draw_size = Dist.sampler (Array.map snd sizes) in
  let base_rate = arrival_rate p ~max_nodes:spec.max_nodes in
  (* Thinning: generate candidate arrivals at the peak rate and accept
     with probability rate(t) / peak. *)
  let peak = base_rate *. (1. +. p.diurnal_amplitude) in
  let rate_at t =
    base_rate *. (1. +. (p.diurnal_amplitude *. sin (2. *. Float.pi *. t /. day)))
  in
  let next_arrival t =
    let rec loop t =
      let t = t +. Dist.exponential arrival_rng ~rate:peak in
      if Rng.unit_float arrival_rng *. peak <= rate_at t then t else loop t
    in
    loop t
  in
  let draw_runtime () =
    let r = Dist.lognormal runtime_rng ~mu:p.runtime_mu ~sigma:p.runtime_sigma in
    Float.min p.runtime_cap (Float.max p.runtime_min r)
  in
  let draw_estimate run_time =
    if Rng.unit_float estimate_rng < p.exact_estimate_prob then run_time
    else
      let inflation =
        Dist.lognormal estimate_rng ~mu:p.estimate_inflation_mu ~sigma:p.estimate_inflation_sigma
      in
      run_time *. (1. +. inflation)
  in
  let rec build id t acc =
    if id >= spec.n_jobs then List.rev acc
    else
      let t = next_arrival t in
      let size = fst sizes.(draw_size size_rng) in
      let run_time = draw_runtime () in
      let job =
        { Bgl_trace.Job_log.id; arrival = t; size; run_time; estimate = draw_estimate run_time }
      in
      build (id + 1) t (job :: acc)
  in
  let name = Printf.sprintf "%s-synth(n=%d,seed=%d)" p.name spec.n_jobs spec.seed in
  Bgl_trace.Job_log.make ~name (build 0 0. [])
