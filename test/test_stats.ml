(* Unit and property tests for the bgl_stats substrate, and for the
   Kolmogorov–Smirnov helper (test/ks.ml) the generator tests use. *)

open Bgl_stats

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check_bool "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  let _ = Rng.bits64 a in
  (* advancing a does not advance b *)
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  check_bool "streams diverge after independent draws" false (va = vb)

let test_rng_split_labels () =
  let mk label =
    let r = Rng.create ~seed:5 in
    Rng.bits64 (Rng.split r ~label)
  in
  check_bool "distinct labels give distinct streams" false (mk "workload" = mk "failures")

let test_rng_split_reproducible () =
  let mk () =
    let r = Rng.create ~seed:5 in
    Rng.bits64 (Rng.split r ~label:"x")
  in
  Alcotest.(check int64) "split reproducible" (mk ()) (mk ())

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create ~seed:3 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_unbiased () =
  (* Regression for the modulo-bias bug. With bound = 3·2^60 a 62-bit
     draw reduced by [mod] lands in [0, 2^60) with probability 1/2
     (both halves of the partial top block fold onto it) instead of
     1/3; rejection sampling restores uniformity. *)
  let bound = 3 * (1 lsl 60) in
  let r = Rng.create ~seed:7 in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    if Rng.int r bound < 1 lsl 60 then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  check_bool
    (Printf.sprintf "first third hit uniformly (got %.3f)" frac)
    true
    (Float.abs (frac -. (1. /. 3.)) < 0.02)

let test_rng_int_huge_bound () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.int r max_int in
    check_bool "in range" true (v >= 0)
  done

(* The rejection draw as written before the fast path: size the
   partial top block with two divisions on every draw, redraw inside
   it. Also counts the draws that take [Rng.int]'s slow path (above
   [max_int - bound + 1]) and the ones rejected. *)
let reference_int ~slow ~rejected r bound =
  let rem = ((max_int mod bound) + 1) mod bound in
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (Rng.bits64 r) 2) in
    if v > max_int - bound + 1 then incr slow;
    if v <= max_int - rem then v mod bound
    else begin
      incr rejected;
      go ()
    end
  in
  go ()

let test_rng_int_matches_reference () =
  List.iter
    (fun (bound, must_reject) ->
      let r = Rng.create ~seed:bound in
      let reference = Rng.copy r in
      let slow = ref 0 and rejected = ref 0 in
      for i = 1 to 2000 do
        check_int (Printf.sprintf "bound %d draw %d" bound i)
          (reference_int ~slow ~rejected reference bound)
          (Rng.int r bound)
      done;
      Alcotest.(check int64) (Printf.sprintf "bound %d: same raw draws consumed" bound)
        (Rng.bits64 reference) (Rng.bits64 r);
      if bound > 1 lsl 60 then check_bool (Printf.sprintf "bound %d takes the slow path" bound) true (!slow > 0);
      if must_reject then check_bool (Printf.sprintf "bound %d redraws" bound) true (!rejected > 0))
    [
      (1, false); (2, false); (3, false); (17, false); (1000, false); (65_536, false);
      ((1 lsl 31) - 1, false);
      (max_int, false); (max_int - 1, false);
      ((1 lsl 61) + 1, true); (3 * (1 lsl 60), true);
    ]

(* The state lives unboxed and [Rng.int] loops without a closure, so
   the 65,535 draws of a full-machine shuffle allocate nothing; a boxed
   state and a local loop cost 11 minor words per draw. Integer and
   boolean draws only: a [float] result is boxed on return. The margin
   covers the boxed floats [Gc.minor_words] itself returns. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create ~seed:37 in
  let a = Array.init 65_536 Fun.id in
  let before = Gc.minor_words () in
  Rng.shuffle r a;
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr heads
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "%.0f minor words for 75,535 draws" words) true (words < 64.);
  check_bool "draws used" true (!heads > 0)

(* Fisher–Yates over the reference draw: the shuffle of 0..65535 (one
   full-machine permutation) is a permutation and the same one. *)
let test_rng_shuffle_full_machine () =
  let n = 65_536 in
  let r = Rng.create ~seed:31 in
  let reference = Rng.copy r in
  let a = Array.init n Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check_bool "a permutation of 0..65535" true (sorted = Array.init n Fun.id);
  let b = Array.init n Fun.id and slow = ref 0 and rejected = ref 0 in
  for i = n - 1 downto 1 do
    let j = reference_int ~slow ~rejected reference (i + 1) in
    let tmp = b.(i) in
    b.(i) <- b.(j);
    b.(j) <- tmp
  done;
  check_bool "the reference draws' permutation" true (a = b)

let test_rng_unit_float_range () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.unit_float r in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_unit_float_mean () =
  let r = Rng.create ~seed:13 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.unit_float r
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_bool_balance () =
  let r = Rng.create ~seed:17 in
  let n = 20_000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if Rng.bool r then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  check_bool "roughly fair" true (abs_float (frac -. 0.5) < 0.02)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_choose_empty () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r [||]))

let test_hash_float_stable () =
  check_float "stable" (Rng.hash_float ~seed:9 3 14) (Rng.hash_float ~seed:9 3 14);
  check_bool "seed matters" false (Rng.hash_float ~seed:9 3 14 = Rng.hash_float ~seed:10 3 14);
  check_bool "args matter" false (Rng.hash_float ~seed:9 3 14 = Rng.hash_float ~seed:9 4 14)

let test_hash_float_uniformish () =
  let n = 5000 in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let v = Rng.hash_float ~seed:1 i (i * 7) in
    assert (v >= 0. && v < 1.);
    total := !total +. v
  done;
  check_bool "mean near 0.5" true (abs_float ((!total /. float_of_int n) -. 0.5) < 0.02)

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean n f =
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. f ()
  done;
  !total /. float_of_int n

let test_exponential_mean () =
  let r = Rng.create ~seed:101 in
  let mean = sample_mean 50_000 (fun () -> Dist.exponential r ~rate:0.5) in
  check_bool "mean near 2" true (abs_float (mean -. 2.) < 0.05)

let test_exponential_positive () =
  let r = Rng.create ~seed:102 in
  for _ = 1 to 1000 do
    check_bool "positive" true (Dist.exponential r ~rate:3. >= 0.)
  done

let test_exponential_invalid () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "rate 0" (Invalid_argument "Dist.exponential: rate must be positive")
    (fun () -> ignore (Dist.exponential r ~rate:0.))

let test_normal_moments () =
  let r = Rng.create ~seed:103 in
  let acc = Summary.Online.create () in
  for _ = 1 to 50_000 do
    Summary.Online.add acc (Dist.normal r ~mean:3. ~std:2.)
  done;
  check_bool "mean near 3" true (abs_float (Summary.Online.mean acc -. 3.) < 0.05);
  check_bool "std near 2" true (abs_float (Summary.Online.std acc -. 2.) < 0.05)

let test_lognormal_median () =
  let r = Rng.create ~seed:104 in
  let samples = Array.init 20_001 (fun _ -> Dist.lognormal r ~mu:1. ~sigma:0.8) in
  Array.sort compare samples;
  let median = samples.(10_000) in
  (* Median of lognormal is exp mu. *)
  check_bool "median near e" true (abs_float (median -. exp 1.) < 0.15)

let test_weibull_shape1_is_exponential () =
  let r = Rng.create ~seed:105 in
  let mean = sample_mean 50_000 (fun () -> Dist.weibull r ~shape:1. ~scale:4.) in
  check_bool "mean near scale" true (abs_float (mean -. 4.) < 0.1)

let test_pareto_minimum () =
  let r = Rng.create ~seed:106 in
  for _ = 1 to 1000 do
    check_bool ">= scale" true (Dist.pareto r ~shape:2. ~scale:1.5 >= 1.5)
  done

let test_geometric_mean () =
  let r = Rng.create ~seed:107 in
  let mean = sample_mean 50_000 (fun () -> float_of_int (Dist.geometric r ~p:0.25)) in
  check_bool "mean near 4" true (abs_float (mean -. 4.) < 0.1)

let test_geometric_p1 () =
  let r = Rng.create ~seed:108 in
  for _ = 1 to 100 do
    check_int "always 1" 1 (Dist.geometric r ~p:1.)
  done

let test_poisson_mean_small () =
  let r = Rng.create ~seed:109 in
  let mean = sample_mean 50_000 (fun () -> float_of_int (Dist.poisson r ~mean:3.5)) in
  check_bool "mean near 3.5" true (abs_float (mean -. 3.5) < 0.1)

let test_poisson_mean_large () =
  let r = Rng.create ~seed:110 in
  let mean = sample_mean 20_000 (fun () -> float_of_int (Dist.poisson r ~mean:100.)) in
  check_bool "mean near 100" true (abs_float (mean -. 100.) < 1.)

let test_poisson_zero () =
  let r = Rng.create ~seed:111 in
  check_int "mean 0 gives 0" 0 (Dist.poisson r ~mean:0.)

let test_zipf_weights () =
  let w = Dist.zipf_weights ~n:5 ~skew:1. in
  check_float "normalised" 1. (Array.fold_left ( +. ) 0. w);
  check_bool "decreasing" true (w.(0) > w.(1) && w.(1) > w.(2));
  check_float "ratio" (w.(0) /. 2.) w.(1)

let test_categorical_distribution () =
  let r = Rng.create ~seed:112 in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  let draw = Dist.sampler [| 1.; 2.; 1. |] in
  for _ = 1 to n do
    let i = draw r in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  check_bool "middle twice as likely" true (abs_float (frac 1 -. 0.5) < 0.02);
  check_bool "edges balanced" true (abs_float (frac 0 -. frac 2) < 0.02)

let test_categorical_zero_weight_skipped () =
  let r = Rng.create ~seed:113 in
  let draw = Dist.sampler [| 0.; 5.; 0. |] in
  for _ = 1 to 1000 do
    check_int "only positive weight drawn" 1 (draw r)
  done

let test_categorical_invalid () =
  Alcotest.check_raises "all zero"
    (Invalid_argument "Dist.sampler: weights must include a positive entry") (fun () ->
      let (_ : Rng.t -> int) = Dist.sampler [| 0.; 0. |] in
      ())

(* The linear scan categorical draws ran before prefix sums: the
   reference every sampler draw must reproduce. *)
let scan_draw rng weights =
  let total = Array.fold_left ( +. ) 0. weights in
  let target = Rng.unit_float rng *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let sampler_matches_scan ~seed ~draws weights =
  let sample = Dist.sampler weights in
  let r = Rng.create ~seed in
  let reference = Rng.copy r in
  List.for_all (fun _ -> sample r = scan_draw reference weights) (List.init draws Fun.id)

let test_sampler_edge_cases () =
  List.iter
    (fun weights ->
      check_bool
        (Printf.sprintf "sampler = scan on %d weights" (Array.length weights))
        true
        (sampler_matches_scan ~seed:115 ~draws:2000 weights))
    [
      [| 3. |];
      [| 0.; 0.; 0.; 2. |];
      [| 2.; 0.; 0.; 0. |];
      [| 1.; 0.; 0.; 1.; 0.; 1. |];
      [| 1.; 1.; 1.; 1.; 1. |];
      [| 1e-300; 1e300; 1e-300; 0.; 1e300 |];
      [| 1e300; 1e-300; 1e-300; 1e-300 |];
      Dist.zipf_weights ~n:4096 ~skew:12.;
    ]

let test_sampler_in_place () =
  let weights = [| 1.; 0.; 2.; 3. |] in
  let kept = Array.copy weights in
  let copying = Dist.sampler weights in
  check_bool "sampler leaves its input alone" true (weights = kept);
  let in_place = Dist.sampler_in_place weights in
  check_bool "sampler_in_place leaves prefix sums" true (weights = [| 1.; 1.; 3.; 6. |]);
  let a = Rng.create ~seed:116 and b = Rng.create ~seed:116 in
  for _ = 1 to 1000 do
    check_int "same draws" (copying a) (in_place b)
  done

let test_sampler_rejects_bad_weights () =
  List.iter
    (fun weights ->
      Alcotest.check_raises "negative or NaN"
        (Invalid_argument "Dist.sampler: weights must be non-negative, not NaN") (fun () ->
          let (_ : Rng.t -> int) = Dist.sampler weights in
          ()))
    [ [| 1.; -1. |]; [| -0.5 |]; [| Float.nan; 1. |]; [| 1.; Float.nan |]; [| 1.; Float.neg_infinity |] ];
  Alcotest.check_raises "no positive weight"
    (Invalid_argument "Dist.sampler: weights must include a positive entry") (fun () ->
      let (_ : Rng.t -> int) = Dist.sampler [| 0.; -0. |] in
      ())

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_known () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  check_int "count" 5 s.count;
  check_float "mean" 3. s.mean;
  check_float "min" 1. s.min;
  check_float "max" 5. s.max;
  check_float "median" 3. s.median;
  check_float "std" (sqrt 2.) s.std

let test_summary_empty () =
  let s = Summary.of_list [] in
  check_int "count" 0 s.count;
  check_float "mean" 0. s.mean

let test_summary_singleton () =
  let s = Summary.of_list [ 7. ] in
  check_float "mean" 7. s.mean;
  check_float "median" 7. s.median;
  check_float "std" 0. s.std

let test_percentile_interpolation () =
  let sorted = [| 0.; 10. |] in
  check_float "p25" 2.5 (Summary.percentile sorted 0.25);
  check_float "p0" 0. (Summary.percentile sorted 0.);
  check_float "p100" 10. (Summary.percentile sorted 1.)

let test_percentile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.percentile: empty sample") (fun () ->
      ignore (Summary.percentile [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Summary.percentile: q out of [0, 1]") (fun () ->
      ignore (Summary.percentile [| 1. |] 1.5))

let test_mean_list () =
  check_float "empty" 0. (Summary.mean []);
  check_float "values" 2. (Summary.mean [ 1.; 2.; 3. ])

let test_online_matches_batch () =
  let values = List.init 100 (fun i -> float_of_int (i * i) /. 7.) in
  let acc = Summary.Online.create () in
  List.iter (Summary.Online.add acc) values;
  let batch = Summary.of_list values in
  check_int "count" batch.count (Summary.Online.count acc);
  check_bool "mean matches" true (abs_float (batch.mean -. Summary.Online.mean acc) < 1e-9);
  check_bool "std matches" true (abs_float (batch.std -. Summary.Online.std acc) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Ks *)

let samples n f =
  let r = Rng.create ~seed:314 in
  Array.init n (fun _ -> f r)

let test_erf_values () =
  check_bool "erf 0" true (abs_float (Ks.erf 0.) < 1e-7);
  check_bool "erf 1" true (abs_float (Ks.erf 1. -. 0.8427007929) < 1e-5);
  check_bool "odd" true (abs_float (Ks.erf (-1.) +. Ks.erf 1.) < 1e-9);
  check_bool "limit" true (Ks.erf 5. > 0.999999)

let test_normal_cdf () =
  check_bool "median" true (abs_float (Ks.normal_cdf ~mean:3. ~std:2. 3. -. 0.5) < 1e-9);
  check_bool "one sigma" true
    (abs_float (Ks.normal_cdf ~mean:0. ~std:1. 1. -. 0.8413447) < 1e-4)

let test_ks_accepts_matching_distribution () =
  check_bool "normal sample vs normal cdf" true
    (Ks.test
       ~samples:(samples 2000 (fun r -> Dist.normal r ~mean:5. ~std:2.))
       ~cdf:(Ks.normal_cdf ~mean:5. ~std:2.) ~alpha:0.01);
  check_bool "exponential sample vs exponential cdf" true
    (Ks.test
       ~samples:(samples 2000 (fun r -> Dist.exponential r ~rate:0.3))
       ~cdf:(Ks.exponential_cdf ~rate:0.3) ~alpha:0.01);
  check_bool "lognormal sample vs lognormal cdf" true
    (Ks.test
       ~samples:(samples 2000 (fun r -> Dist.lognormal r ~mu:1. ~sigma:0.7))
       ~cdf:(Ks.lognormal_cdf ~mu:1. ~sigma:0.7) ~alpha:0.01);
  check_bool "uniform sample vs uniform cdf" true
    (Ks.test
       ~samples:(samples 2000 (fun r -> Rng.float r 10.))
       ~cdf:(Ks.uniform_cdf ~lo:0. ~hi:10.) ~alpha:0.01)

let test_ks_rejects_wrong_distribution () =
  check_bool "exponential sample vs normal cdf rejected" false
    (Ks.test
       ~samples:(samples 2000 (fun r -> Dist.exponential r ~rate:1.))
       ~cdf:(Ks.normal_cdf ~mean:1. ~std:1.) ~alpha:0.01);
  check_bool "shifted mean rejected" false
    (Ks.test
       ~samples:(samples 2000 (fun r -> Dist.normal r ~mean:5. ~std:1.))
       ~cdf:(Ks.normal_cdf ~mean:5.5 ~std:1.) ~alpha:0.01)

let test_ks_statistic_known () =
  (* A single sample at the median of U(0,1): D = 0.5. *)
  check_float "single point" 0.5 (Ks.statistic ~samples:[| 0.5 |] ~cdf:(Ks.uniform_cdf ~lo:0. ~hi:1.));
  check_bool "p-value monotone in d" true (Ks.p_value ~d:0.1 ~n:100 > Ks.p_value ~d:0.2 ~n:100);
  check_float "d=0 gives p=1" 1. (Ks.p_value ~d:0. ~n:10)

let test_ks_invalid () =
  Alcotest.check_raises "empty sample" (Invalid_argument "Ks.statistic: empty sample") (fun () ->
      ignore (Ks.statistic ~samples:[||] ~cdf:(fun _ -> 0.)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_summary_min_le_max =
  QCheck.Test.make ~name:"Summary orders min<=median<=max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun values ->
      let s = Summary.of_list values in
      s.min <= s.median && s.median <= s.max && s.min <= s.mean && s.mean <= s.max)

let prop_categorical_picks_positive =
  QCheck.Test.make ~name:"categorical never picks zero weight" ~count:300
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 10) (float_bound_inclusive 5.)))
    (fun (seed, weights) ->
      let weights = Array.of_list weights in
      QCheck.assume (Array.exists (fun w -> w > 0.) weights);
      let r = Rng.create ~seed in
      let i = Dist.sampler weights r in
      weights.(i) > 0.)

(* Zero runs, ties, inexact sums and magnitudes from 1e-300 to 1e301,
   so prefix sums stall, repeat, round and absorb small weights. *)
let prop_sampler_matches_scan =
  let weight =
    QCheck.Gen.(
      frequency
        [
          (3, return 0.);
          (2, return 1.);
          (2, map float_of_int (int_range 1 4));
          (2, float_range 0. 3.);
          ( 3,
            map2
              (fun m k -> m *. (10. ** float_of_int k))
              (float_range 1. 10.) (int_range (-300) 300) );
        ])
  in
  QCheck.Test.make ~name:"sampler returns the linear scan's index" ~count:500
    QCheck.(
      make ~print:Print.(pair int (array float)) Gen.(pair small_nat (array_size (int_range 1 40) weight)))
    (fun (seed, weights) ->
      QCheck.assume (Array.exists (fun w -> w > 0.) weights);
      sampler_matches_scan ~seed ~draws:64 weights)

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_int_in_bounds; prop_summary_min_le_max;
      prop_categorical_picks_positive; prop_sampler_matches_scan ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_stats"
    [
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "seed sensitivity" test_rng_seed_sensitivity;
          tc "copy independence" test_rng_copy_independent;
          tc "split labels" test_rng_split_labels;
          tc "split reproducible" test_rng_split_reproducible;
          tc "int bounds" test_rng_int_bounds;
          tc "int invalid" test_rng_int_invalid;
          tc "int unbiased" test_rng_int_unbiased;
          tc "int huge bound" test_rng_int_huge_bound;
          tc "int matches the reference rejection draw" test_rng_int_matches_reference;
          tc "unit_float range" test_rng_unit_float_range;
          tc "unit_float mean" test_rng_unit_float_mean;
          tc "bool balance" test_rng_bool_balance;
          tc "shuffle permutation" test_rng_shuffle_permutation;
          tc "shuffle of a full machine" test_rng_shuffle_full_machine;
          tc "draws allocate nothing" test_rng_draws_allocate_nothing;
          tc "choose empty" test_rng_choose_empty;
          tc "hash_float stable" test_hash_float_stable;
          tc "hash_float uniform-ish" test_hash_float_uniformish;
        ] );
      ( "dist",
        [
          tc "exponential mean" test_exponential_mean;
          tc "exponential positive" test_exponential_positive;
          tc "exponential invalid" test_exponential_invalid;
          tc "normal moments" test_normal_moments;
          tc "lognormal median" test_lognormal_median;
          tc "weibull shape 1" test_weibull_shape1_is_exponential;
          tc "pareto minimum" test_pareto_minimum;
          tc "geometric mean" test_geometric_mean;
          tc "geometric p=1" test_geometric_p1;
          tc "poisson mean (small)" test_poisson_mean_small;
          tc "poisson mean (large)" test_poisson_mean_large;
          tc "poisson zero" test_poisson_zero;
          tc "zipf weights" test_zipf_weights;
          tc "categorical distribution" test_categorical_distribution;
          tc "categorical invalid" test_categorical_invalid;
          tc "categorical skips zero" test_categorical_zero_weight_skipped;
          tc "sampler edge cases" test_sampler_edge_cases;
          tc "sampler in place" test_sampler_in_place;
          tc "sampler rejects bad weights" test_sampler_rejects_bad_weights;
        ] );
      ( "summary",
        [
          tc "known values" test_summary_known;
          tc "empty" test_summary_empty;
          tc "singleton" test_summary_singleton;
          tc "percentile interpolation" test_percentile_interpolation;
          tc "percentile invalid" test_percentile_invalid;
          tc "mean list" test_mean_list;
          tc "online matches batch" test_online_matches_batch;
        ] );
      ( "ks",
        [
          tc "erf values" test_erf_values;
          tc "normal cdf" test_normal_cdf;
          tc "accepts matching" test_ks_accepts_matching_distribution;
          tc "rejects wrong" test_ks_rejects_wrong_distribution;
          tc "statistic known" test_ks_statistic_known;
          tc "invalid" test_ks_invalid;
        ] );
      ("properties", props);
    ]
