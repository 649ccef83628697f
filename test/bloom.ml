type t = {
  bits : Bytes.t;
  nbits : int;
  k : int;
  mutable insertions : int;
}

let optimal_hashes ~bits ~expected =
  let k = float_of_int bits /. float_of_int expected *. log 2.0 in
  max 1 (int_of_float (Float.round k))

let create ~expected ~fp_rate =
  if expected <= 0 then invalid_arg "Bloom.create: expected must be positive";
  if fp_rate <= 0.0 || fp_rate >= 1.0 then
    invalid_arg "Bloom.create: fp_rate must be in (0, 1)";
  let nbits = Centaur.Permission_list.filter_bits ~expected ~fp_rate in
  let k = optimal_hashes ~bits:nbits ~expected in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k; insertions = 0 }

(* Double hashing: h_i(x) = h1(x) + i * h2(x). The two base hashes come from
   one SplitMix64-style mix of the key with different salts. *)
let mix64 salt x =
  let z = Int64.add (Int64.of_int x) salt in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bit_index t key i =
  (* Shift by 2 keeps the value positive in OCaml's 63-bit native int;
     reduce both hashes before combining so the sum cannot overflow. *)
  let h1 =
    Int64.to_int (Int64.shift_right_logical (mix64 0x9E3779B97F4A7C15L key) 2)
    mod t.nbits
  in
  (* Stride in [1, nbits-1]: forcing oddness with `lor 1` could reach
     nbits itself (stride 0 mod nbits) and collapse all probes onto one
     bit. *)
  let h2 =
    1
    + (Int64.to_int (Int64.shift_right_logical (mix64 0xD1B54A32D192ED03L key) 2)
       mod max 1 (t.nbits - 1))
  in
  (h1 + (i * h2)) mod t.nbits

let set_bit t idx =
  let byte = idx / 8 and bit = idx mod 8 in
  let cur = Char.code (Bytes.get t.bits byte) in
  Bytes.set t.bits byte (Char.chr (cur lor (1 lsl bit)))

let get_bit t idx =
  let byte = idx / 8 and bit = idx mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let add t key =
  for i = 0 to t.k - 1 do
    set_bit t (bit_index t key i)
  done;
  t.insertions <- t.insertions + 1

let mem t key =
  let rec go i = i >= t.k || (get_bit t (bit_index t key i) && go (i + 1)) in
  go 0

let popcount t =
  let count = ref 0 in
  let full_bytes = t.nbits / 8 in
  for b = 0 to Bytes.length t.bits - 1 do
    let v = Char.code (Bytes.get t.bits b) in
    let v = if b = full_bytes then v land ((1 lsl (t.nbits mod 8)) - 1) else v in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + (v land 1)) in
    count := !count + bits v 0
  done;
  !count

let fill_ratio t = float_of_int (popcount t) /. float_of_int t.nbits

let cardinal_estimate t =
  let x = float_of_int (popcount t) in
  let m = float_of_int t.nbits and k = float_of_int t.k in
  if x >= m then infinity
  else -.(m /. k) *. log (1.0 -. (x /. m))

let size_bits t = t.nbits

let size_bytes t = Bytes.length t.bits

let num_hashes t = t.k
