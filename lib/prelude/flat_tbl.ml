(* Open-addressing int -> int hash table on two flat arrays.

   The arena/SoA storage layer keeps every per-entry datum in plain int
   arrays; what it still needs is a key -> slot index, and a chaining
   hashtable would reintroduce one heap block per entry (the bucket cons)
   plus pointer-chasing on every probe. This table is two parallel int
   arrays — keys and values — probed linearly, grown geometrically at 50%
   load, with tombstones compacted away on growth. No per-entry
   allocation, no boxing, no polymorphic compare.

   Keys are arbitrary ints except the two reserved sentinels below.
   Probing mixes the key through a SplitMix64-style finalizer so packed
   keys (which concentrate entropy in a few bit fields) spread across the
   table. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int; (* live entries *)
  mutable tombs : int; (* deleted slots awaiting compaction *)
}

let empty_key = min_int
let tomb_key = min_int + 1

let check_key k =
  if k = empty_key || k = tomb_key then
    invalid_arg "Flat_tbl: key collides with a reserved sentinel"

let create ?(initial = 16) () =
  let cap = ref 8 in
  while !cap < initial do
    cap := !cap * 2
  done;
  { keys = Array.make !cap empty_key;
    vals = Array.make !cap 0;
    mask = !cap - 1;
    count = 0;
    tombs = 0 }

let length t = t.count

(* Finalizer from SplitMix64, truncated to the native int width. *)
let hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  h lxor (h lsr 32)

(* Insertion into a table known to contain neither [k] nor tombstones
   (used by growth/compaction only). *)
let insert_fresh keys vals mask k v =
  let i = ref (hash k land mask) in
  while keys.(!i) <> empty_key do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  vals.(!i) <- v

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  (* Compaction alone suffices when most occupancy is tombstones. *)
  let cap =
    if t.count * 4 > (t.mask + 1) then (t.mask + 1) * 2 else t.mask + 1
  in
  let keys = Array.make cap empty_key in
  let vals = Array.make cap 0 in
  let mask = cap - 1 in
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty_key && k <> tomb_key then insert_fresh keys vals mask k old_vals.(i)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.tombs <- 0

let set t k v =
  check_key k;
  if (t.count + t.tombs) * 2 >= t.mask + 1 then grow t;
  let keys = t.keys and mask = t.mask in
  let i = ref (hash k land mask) in
  let slot = ref (-1) in
  (* First tombstone on the probe path is reusable, but only after the
     full path confirms the key is absent. *)
  let continue = ref true in
  while !continue do
    let cur = keys.(!i) in
    if cur = empty_key then begin
      let at = if !slot >= 0 then !slot else !i in
      if !slot >= 0 then t.tombs <- t.tombs - 1;
      keys.(at) <- k;
      t.vals.(at) <- v;
      t.count <- t.count + 1;
      continue := false
    end
    else if cur = k then begin
      t.vals.(!i) <- v;
      continue := false
    end
    else begin
      if cur = tomb_key && !slot < 0 then slot := !i;
      i := (!i + 1) land mask
    end
  done

let find_slot t k =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash k land mask) in
  let res = ref (-1) in
  let continue = ref true in
  while !continue do
    let cur = keys.(!i) in
    if cur = k then begin
      res := !i;
      continue := false
    end
    else if cur = empty_key then continue := false
    else i := (!i + 1) land mask
  done;
  !res

let find_opt t k =
  if k = empty_key || k = tomb_key then None
  else
    let s = find_slot t k in
    if s < 0 then None else Some t.vals.(s)

let find_default t k ~default =
  if k = empty_key || k = tomb_key then default
  else
    let s = find_slot t k in
    if s < 0 then default else t.vals.(s)

let mem t k = k <> empty_key && k <> tomb_key && find_slot t k >= 0

let remove t k =
  if k <> empty_key && k <> tomb_key then begin
    let s = find_slot t k in
    if s >= 0 then begin
      t.keys.(s) <- tomb_key;
      t.count <- t.count - 1;
      t.tombs <- t.tombs + 1
    end
  end

let add_to t k delta =
  check_key k;
  let s = find_slot t k in
  if s >= 0 then begin
    let v = t.vals.(s) + delta in
    t.vals.(s) <- v;
    v
  end
  else begin
    set t k delta;
    delta
  end

let iter t f =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty_key && k <> tomb_key then f k t.vals.(i)
  done

let fold t ~init ~f =
  let keys = t.keys in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty_key && k <> tomb_key then acc := f !acc k t.vals.(i)
  done;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.count <- 0;
  t.tombs <- 0
