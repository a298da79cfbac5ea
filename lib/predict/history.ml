(* Both estimators need the past events of one node up to [now]; the
   index's count/first queries give them in O(log n). *)

let check_params ~positive ~non_negative =
  if not (Float.is_finite positive && positive > 0.) then
    invalid_arg "History: window/half_life must be positive and finite";
  if not (non_negative >= 0.) then invalid_arg "History: threshold must be non-negative"

let make ~name ~intensity ~threshold =
  let prob ~node ~now ~horizon = Float.min 1. (intensity ~node ~now *. horizon) in
  {
    Predictor.name;
    node_prob = (fun ~node ~now ~horizon -> prob ~node ~now ~horizon);
    node_will_fail = (fun ~node ~now ~horizon -> intensity ~node ~now *. horizon >= threshold);
  }

let rate ~window ~threshold index =
  check_params ~positive:window ~non_negative:threshold;
  let intensity ~node ~now =
    let events = Failure_index.count_in index ~node ~t0:(now -. window) ~t1:now in
    float_of_int events /. window
  in
  make ~name:(Printf.sprintf "history-rate(w=%g,th=%g)" window threshold) ~intensity ~threshold

let ewma ~half_life ~threshold index =
  check_params ~positive:half_life ~non_negative:threshold;
  (* Sum 2^(-age/half_life) over past events by stepping through
     geometrically growing age buckets; 32 half-lives bound the tail. *)
  let intensity ~node ~now =
    let lambda = Float.log 2. /. half_life in
    let rec bucket_sum k acc =
      if k >= 32 then acc
      else
        let age_hi = half_life *. float_of_int (k + 1) in
        let age_lo = half_life *. float_of_int k in
        let events =
          Failure_index.count_in index ~node ~t0:(now -. age_hi) ~t1:(now -. age_lo)
        in
        (* weight every event in the bucket at its youngest age (an
           upper bound; consistent across nodes, so ranking is fair) *)
        let weight = Float.exp (-.lambda *. age_lo) in
        bucket_sum (k + 1) (acc +. (float_of_int events *. weight))
    in
    lambda *. bucket_sum 0 0.
  in
  make ~name:(Printf.sprintf "history-ewma(hl=%g,th=%g)" half_life threshold) ~intensity ~threshold
