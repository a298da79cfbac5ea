let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  (* 1 - u avoids log 0. *)
  -.log (1. -. Rng.unit_float rng) /. rate

let normal rng ~mean ~std =
  let u1 = 1. -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  mean +. (std *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~std:sigma)

let weibull rng ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Dist.weibull: parameters must be positive";
  scale *. ((-.log (1. -. Rng.unit_float rng)) ** (1. /. shape))

let pareto rng ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Dist.pareto: parameters must be positive";
  scale /. ((1. -. Rng.unit_float rng) ** (1. /. shape))

let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: p must be in (0, 1]";
  if p >= 1. then 1
  else
    let u = 1. -. Rng.unit_float rng in
    1 + int_of_float (Float.floor (log u /. log (1. -. p)))

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson: mean must be non-negative";
  if mean <= 0. then 0
  else if mean > 60. then
    (* Normal approximation with continuity correction. *)
    max 0 (int_of_float (Float.round (normal rng ~mean ~std:(sqrt mean))))
  else
    (* Knuth inversion. *)
    let l = exp (-.mean) in
    let rec loop k p =
      let p = p *. Rng.unit_float rng in
      if p <= l then k else loop (k + 1) p
    in
    loop 0 1.

let zipf_weights ~n ~skew =
  if n <= 0 then invalid_arg "Dist.zipf_weights: n must be positive";
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** skew)) in
  let total = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. total) w

(* Prefix sums taken in index order are exactly the partial sums the
   linear scan [acc += w.(i); if target < acc then i] accumulates, and
   the last one is the scan's total bit for bit. With non-negative
   weights they never decrease, so [target < cum.(i)] is monotone in
   [i] and a binary search finds the scan's index. [cum] holds the
   weights on entry and is overwritten. *)
let sampler_in_place cum =
  let n = Array.length cum in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let w = cum.(i) in
    if not (w >= 0.) then invalid_arg "Dist.sampler: weights must be non-negative, not NaN";
    acc := !acc +. w;
    cum.(i) <- !acc
  done;
  let total = !acc in
  if total <= 0. then invalid_arg "Dist.sampler: weights must include a positive entry";
  fun rng ->
    let target = Rng.unit_float rng *. total in
    (* The first i <= n-2 with target < cum.(i), else n-1. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if target < cum.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

let sampler weights = sampler_in_place (Array.copy weights)
