(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh Int64 on every draw. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let state t = Bytes.get_int64_ne t 0
let set_state t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set_state t s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let z = Int64.add (state t) golden in
  set_state t z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Shift by 2 so the result fits OCaml's 63-bit native int without
     wrapping negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let normal t =
  let u1 = Float.max 1e-12 (float t) and u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let split t = of_state (next t)

(* [next] only adds [golden] to the state before mixing, so k draws
   advance the state by k·golden (mod 2^64): skipping them is one
   multiply-add. *)
let jump t k =
  if k < 0 then invalid_arg "Rng.jump: negative draw count";
  set_state t (Int64.add (state t) (Int64.mul (Int64.of_int k) golden))
