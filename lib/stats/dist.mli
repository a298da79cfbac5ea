(** Samplers for the probability distributions used by the workload and
    failure models. All samplers take an explicit {!Rng.t} so call
    sites remain reproducible. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with the given rate (mean [1. /. rate]). [rate] must be
    positive. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** Log-normal: [exp (mu + sigma * N(0,1))]. The mean is
    [exp (mu +. sigma ** 2. /. 2.)]. *)

val normal : Rng.t -> mean:float -> std:float -> float
(** Gaussian via Box–Muller. *)

val weibull : Rng.t -> shape:float -> scale:float -> float
(** Weibull; [shape < 1.] gives the heavy-tailed, bursty inter-arrival
    behaviour observed in failure logs. *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** Pareto type I with minimum [scale]. *)

val geometric : Rng.t -> p:float -> int
(** Number of Bernoulli(p) trials up to and including the first
    success; support is [{1, 2, ...}]. [p] must be in [(0, 1\]]. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson by inversion for small means, with a normal approximation
    above 60 to stay O(1). *)

val zipf_weights : n:int -> skew:float -> float array
(** [zipf_weights ~n ~skew] is the normalised Zipf pmf
    [w.(i) ∝ 1 / (i+1)^skew] over [n] ranks. *)

val sampler : float array -> Rng.t -> int
(** [sampler weights] takes the prefix sums of unnormalised weights
    once; each draw of the result is then O(log n) and returns an
    index drawn with probability proportional to its weight: the index
    a linear scan of [weights] returns for the same draw. Every weight
    must be non-negative and not NaN, and one must be positive;
    otherwise [Invalid_argument] is raised. *)

val sampler_in_place : float array -> Rng.t -> int
(** As {!sampler}, but overwrites [weights] with their prefix sums
    instead of copying them: for callers that built the array only to
    draw from it. *)
