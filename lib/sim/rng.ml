(* The 64-bit state lives unboxed in an 8-byte buffer, and [mix] and
   [bits64] inline into the draws below, so a draw that returns an int,
   a bool or a float compared in place allocates nothing. An [int64]
   record field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (mix (bits64 t))

let copy t = Bytes.copy t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int and stays
     non-negative; rejection-free modulo is fine for our bounds. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let[@inline] float t =
  (* 53 random bits into [0,1). *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. 0x1p-53

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = if p <= 0. then false else if p >= 1. then true else float t < p

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. float t in
  -.mean *. log u

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Rng.pareto: parameters must be positive";
  let u = 1. -. float t in
  scale /. (u ** (1. /. shape))

let log_uniform t lo hi =
  if lo <= 0. || hi < lo then invalid_arg "Rng.log_uniform: need 0 < lo <= hi";
  exp (uniform t (log lo) (log hi))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
