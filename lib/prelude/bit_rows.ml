type t = {
  n : int;
  rows : Bytes.t array; (* [Bytes.empty] until a bit is set *)
}

let create n = { n; rows = Array.make n Bytes.empty }

(* Every byte access below follows this check (or, in [next], one on
   the row alone, with each byte index compared against the row's
   length). *)
let check t r i =
  if r < 0 || r >= t.n || i < 0 || i >= t.n then
    invalid_arg "Bit_rows: id out of range"

let add t r i =
  check t r i;
  let row =
    match Array.unsafe_get t.rows r with
    | row when Bytes.length row > 0 -> row
    | _ ->
      let row = Bytes.make ((t.n + 7) / 8) '\000' in
      Array.unsafe_set t.rows r row;
      row
  in
  let k = i lsr 3 in
  Bytes.unsafe_set row k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get row k) lor (1 lsl (i land 7))))

let remove t r i =
  check t r i;
  let row = Array.unsafe_get t.rows r in
  if Bytes.length row > 0 then begin
    let k = i lsr 3 in
    Bytes.unsafe_set row k
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get row k) land lnot (1 lsl (i land 7))))
  end

let mem t r i =
  check t r i;
  let row = Array.unsafe_get t.rows r in
  Bytes.length row > 0
  && Char.code (Bytes.unsafe_get row (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* The lowest set bit of each non-zero byte. *)
let low_bit =
  String.init 256 (fun v ->
      let rec low b = if v = 0 || (v lsr b) land 1 <> 0 then b else low (b + 1) in
      Char.unsafe_chr (low 0))

let next t r i =
  if r < 0 || r >= t.n || i < 0 then invalid_arg "Bit_rows: id out of range";
  let row = Array.unsafe_get t.rows r in
  let len = Bytes.length row in
  (* Byte [k] holds ids [8k, 8k + 8); the bits below [i] are masked off. *)
  let k = ref (i lsr 3) in
  let v =
    ref (if !k < len then Char.code (Bytes.unsafe_get row !k) land (0xff lsl (i land 7)) else 0)
  in
  while !v = 0 && !k + 1 < len do
    incr k;
    v := Char.code (Bytes.unsafe_get row !k)
  done;
  if !v = 0 then -1 else (!k lsl 3) + Char.code (String.unsafe_get low_bit !v)
