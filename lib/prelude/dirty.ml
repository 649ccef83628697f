(* Flat layout: one byte per key answers membership, and an int array
   holds the keys in marking order. The membership bytes reach up to the
   largest key marked and grow by doubling. Taking the keys sorts a copy
   of that array and resets only the marked bytes, so a set that is
   marked and drained over and over is reset, never reallocated, and a
   drain costs what was marked, not the key range. *)
type t = {
  mutable seen : Bytes.t;
  mutable keys : int array;
  mutable len : int;
}

let create ?(size = 64) () =
  let size = max size 1 in
  { seen = Bytes.make size '\000'; keys = Array.make size 0; len = 0 }

let mem t key = key >= 0 && key < Bytes.length t.seen && Bytes.unsafe_get t.seen key <> '\000'

let mark t key =
  if key < 0 then invalid_arg "Dirty.mark: negative key";
  if key >= Bytes.length t.seen then begin
    let seen = Bytes.make (max (key + 1) (2 * Bytes.length t.seen)) '\000' in
    Bytes.blit t.seen 0 seen 0 (Bytes.length t.seen);
    t.seen <- seen
  end;
  if Bytes.unsafe_get t.seen key = '\000' then begin
    Bytes.unsafe_set t.seen key '\001';
    if t.len = Array.length t.keys then begin
      let keys = Array.make (2 * t.len) 0 in
      Array.blit t.keys 0 keys 0 t.len;
      t.keys <- keys
    end;
    t.keys.(t.len) <- key;
    t.len <- t.len + 1
  end

let mark_list t keys = List.iter (mark t) keys

let mark_range t lo hi =
  for key = lo to hi do
    mark t key
  done

let is_empty t = t.len = 0

let cardinal t = t.len

let clear t =
  for i = 0 to t.len - 1 do
    Bytes.unsafe_set t.seen t.keys.(i) '\000'
  done;
  t.len <- 0

(* The sets drained on the hot paths mostly hold a handful of keys:
   those are insertion-sorted, which allocates nothing. Larger ones take
   the merge sort, whose scratch is half the array ([Array.sort]
   allocates an exception per element it sifts). *)
let sorted_keys t =
  let keys = Array.sub t.keys 0 t.len in
  if t.len > 32 then Array.stable_sort Int.compare keys
  else
    for i = 1 to t.len - 1 do
      let k = keys.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && keys.(!j) > k do
        keys.(!j + 1) <- keys.(!j);
        decr j
      done;
      keys.(!j + 1) <- k
    done;
  keys

let take_sorted t =
  let keys = sorted_keys t in
  clear t;
  keys

let take t = Array.to_list (take_sorted t)

let rec drain t f =
  if t.len > 0 then begin
    Array.iter f (take_sorted t);
    drain t f
  end

let fold t ~init ~f = Array.fold_left f init (sorted_keys t)
