type t = {
  name : string;
  node_prob : node:int -> now:float -> horizon:float -> float;
  node_will_fail : node:int -> now:float -> horizon:float -> bool;
}

let null =
  {
    name = "null";
    node_prob = (fun ~node:_ ~now:_ ~horizon:_ -> 0.);
    node_will_fail = (fun ~node:_ ~now:_ ~horizon:_ -> false);
  }

let check_param what v =
  if not (v >= 0. && v <= 1.) then invalid_arg (Printf.sprintf "Predictor: %s must be in [0, 1]" what)

let balancing ~confidence index =
  check_param "confidence" confidence;
  let failure_coming ~node ~now ~horizon =
    Failure_index.has_failure_in index ~node ~t0:now ~t1:(now +. horizon)
  in
  {
    name = Printf.sprintf "balancing(a=%g)" confidence;
    node_prob =
      (fun ~node ~now ~horizon -> if failure_coming ~node ~now ~horizon then confidence else 0.);
    node_will_fail =
      (fun ~node ~now ~horizon -> confidence > 0. && failure_coming ~node ~now ~horizon);
  }

(* The stochastic yes/no is keyed on the identity of the first upcoming
   failure event (node, millisecond timestamp), so asking twice about
   the same event gives the same answer while distinct events are
   independent draws. *)
let event_draw ~seed ~node time = Bgl_stats.Rng.hash_float ~seed node (int_of_float (time *. 1000.))

let tie_breaking ~accuracy ~seed index =
  check_param "accuracy" accuracy;
  let will_fail ~node ~now ~horizon =
    match Failure_index.first_failure_in index ~node ~t0:now ~t1:(now +. horizon) with
    | None -> false
    | Some time -> event_draw ~seed ~node time < accuracy
  in
  {
    name = Printf.sprintf "tie-breaking(a=%g)" accuracy;
    node_prob = (fun ~node ~now ~horizon -> if will_fail ~node ~now ~horizon then 1. else 0.);
    node_will_fail = will_fail;
  }

let oracle index =
  let t = tie_breaking ~accuracy:1. ~seed:0 index in
  { t with name = "oracle" }

let noisy ~accuracy ~false_positive ~seed index =
  check_param "accuracy" accuracy;
  check_param "false_positive" false_positive;
  let base = tie_breaking ~accuracy ~seed index in
  let will_fail ~node ~now ~horizon =
    if base.node_will_fail ~node ~now ~horizon then true
    else if Failure_index.has_failure_in index ~node ~t0:now ~t1:(now +. horizon) then false
      (* a true upcoming failure that the accuracy draw suppressed stays
         a false negative; spurious alarms only arise on quiet nodes *)
    else
      let bucket = int_of_float ((now +. horizon) /. 3600.) in
      Bgl_stats.Rng.hash_float ~seed:(seed + 0x5f5e1) node bucket < false_positive
  in
  {
    name = Printf.sprintf "noisy(a=%g,fp=%g)" accuracy false_positive;
    node_prob = (fun ~node ~now ~horizon -> if will_fail ~node ~now ~horizon then 1. else 0.);
    node_will_fail = will_fail;
  }

let partition_prob_raw t ~combine ~nodes ~now ~horizon =
  match combine with
  | `Max ->
      List.fold_left (fun acc node -> Float.max acc (t.node_prob ~node ~now ~horizon)) 0. nodes
  | `Product ->
      let survive =
        List.fold_left (fun acc node -> acc *. (1. -. t.node_prob ~node ~now ~horizon)) 1. nodes
      in
      1. -. survive

(* Predictor queries dominate the fault-aware policies' scheduling
   passes; the span guard keeps the unprofiled path allocation-free. *)
let partition_prob t ~combine ~nodes ~now ~horizon =
  if Bgl_obs.Span.enabled () then
    Bgl_obs.Span.time ~name:"predictor.partition_prob" (fun () ->
        partition_prob_raw t ~combine ~nodes ~now ~horizon)
  else partition_prob_raw t ~combine ~nodes ~now ~horizon

let partition_will_fail t ~nodes ~now ~horizon =
  if Bgl_obs.Span.enabled () then
    Bgl_obs.Span.time ~name:"predictor.partition_will_fail" (fun () ->
        List.exists (fun node -> t.node_will_fail ~node ~now ~horizon) nodes)
  else List.exists (fun node -> t.node_will_fail ~node ~now ~horizon) nodes
