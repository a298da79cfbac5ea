(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). State advances by the golden-gamma
   constant; output is a finalizing mix of the state. *)

(* The 64-bit state in 8 bytes rather than a mutable [int64] field: a
   record field holds its [int64] boxed, so every draw allocated a new
   box (and, with [bits64] and [mix] not inlined, a boxed result too).
   Read and written through [Bytes.get_int64_ne]/[set_int64_ne], the
   state stays unboxed and a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

(* FNV-1a over the label bytes, folded into the parent's next output. *)
let split t ~label =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    label;
  of_state (mix (Int64.logxor (bits64 t) !h))

(* Unbiased bounded draw by rejection (the bounded-draw debiasing of
   Lemire 2019, in the divisionless-free form): [v mod bound] is
   uniform iff [v] lands below the largest multiple of [bound] in
   [0, 2^62), so the partial block at the top — fewer than [bound]
   values — is redrawn. [max_int] is 2^62 - 1, hence
   [2^62 mod bound = ((max_int mod bound) + 1) mod bound]; the shift
   by 2 keeps the draw within OCaml's 63-bit non-negative range.
   The partial block holds at most [bound - 1] values, so a draw
   [v <= max_int - bound + 1] lies below it whatever its size; only
   draws in the top [bound - 1] values pay the two divisions that
   size it. A top-level function rather than a local loop, so a call
   allocates no closure. *)
let rec draw t bound =
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  if v <= max_int - bound + 1 then v mod bound
  else
    let rem = ((max_int mod bound) + 1) mod bound in
    if v <= max_int - rem then v mod bound else draw t bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let unit_float t =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let hash_float ~seed a b =
  let z = Int64.of_int seed in
  let z = mix (Int64.add z (Int64.mul golden_gamma (Int64.of_int (a + 0x9e3779b9)))) in
  let z = mix (Int64.add z (Int64.mul golden_gamma (Int64.of_int (b + 0x85ebca6b)))) in
  let v = Int64.to_int (Int64.shift_right_logical z 11) in
  float_of_int v *. 0x1.0p-53
