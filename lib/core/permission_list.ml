(* Flat layout: a list is an immutable int array of packed
   (next hop, destination) keys, sorted ascending with no duplicates.
   The next hop sits in the high bits as a signed id, [-1] for none, so
   Int.compare orders keys by next hop ([-1] first) and then by
   destination — the {!entries} order — and the pairs of one entry form
   a contiguous run. Signed packing keeps the top pair
   (max_id, max_id) at [max_int]: an unsigned [next + 1] would need a
   64th bit. *)

type t = int array

let shift = 31
let max_id = (1 lsl shift) - 1

let pack ~dest ~next = (next lsl shift) lor dest
let key_dest k = k land max_id
let key_next k = k asr shift

let valid ~dest ~next = dest >= 0 && dest <= max_id && next >= -1 && next <= max_id

let check ~dest ~next =
  if not (valid ~dest ~next) then
    invalid_arg "Permission_list: node id out of packed range"

let empty = [||]

let is_empty t = Array.length t = 0

(* First index of [t] whose key is >= [k]. *)
let lower_bound (t : int array) k =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t k =
  let i = lower_bound t k in
  i < Array.length t && t.(i) = k

let permit t ~dest ~next = valid ~dest ~next && mem t (pack ~dest ~next)

let add t ~dest ~next =
  check ~dest ~next;
  let k = pack ~dest ~next in
  let len = Array.length t in
  let i = lower_bound t k in
  if i < len && t.(i) = k then t
  else begin
    let a = Array.make (len + 1) k in
    Array.blit t 0 a 0 i;
    Array.blit t i a (i + 1) (len - i);
    a
  end

let filter_dests t keep =
  let out = Array.make (Array.length t) 0 in
  let n = ref 0 in
  Array.iter
    (fun k ->
      if keep (key_dest k) then begin
        out.(!n) <- k;
        incr n
      end)
    t;
  if !n = Array.length t then t else Array.sub out 0 !n

(* The pairs of one entry form a run of equal next hops: the end of the
   run starting at [i]. *)
let run_end (a : int array) len i =
  let next = key_next a.(i) in
  let j = ref (i + 1) in
  while !j < len && key_next a.(!j) = next do
    incr j
  done;
  !j

(* [f next lo hi] over each entry's run [a.(lo .. hi-1)], ascending. *)
let iter_runs a len f =
  let i = ref 0 in
  while !i < len do
    let j = run_end a len !i in
    f (key_next a.(!i)) !i j;
    i := j
  done

(* Counting and pricing loop without a closure: both run on the wire
   path. *)
let runs a len =
  let n = ref 0 and i = ref 0 in
  while !i < len do
    incr n;
    i := run_end a len !i
  done;
  !n

let filter_bits ~expected ~fp_rate =
  let n = float_of_int expected in
  let m = -.n *. log fp_rate /. (log 2.0 *. log 2.0) in
  max 8 (int_of_float (ceil m))

let size_bytes a len ~fp_rate =
  let bytes = ref 0 and i = ref 0 in
  while !i < len do
    let j = run_end a len !i in
    bytes := !bytes + 4 + ((filter_bits ~expected:(j - !i) ~fp_rate + 7) / 8);
    i := j
  done;
  !bytes

let num_entries t = runs t (Array.length t)

let compressed_size_bytes t ~fp_rate = size_bytes t (Array.length t) ~fp_rate

let entries t =
  let acc = ref [] in
  iter_runs t (Array.length t) (fun next lo hi ->
      acc := (next, List.init (hi - lo) (fun i -> key_dest t.(lo + i))) :: !acc);
  List.rev !acc

let prefix_equal (a : int array) len (b : int array) =
  len = Array.length b
  &&
  let i = ref 0 in
  while !i < len && a.(!i) = b.(!i) do
    incr i
  done;
  !i = len

let equal a b = a == b || prefix_equal a (Array.length a) b

(* A merge walk over the two sorted key arrays. *)
let iter_diff a b f =
  if a != b then begin
    let la = Array.length a and lb = Array.length b in
    let i = ref 0 and j = ref 0 in
    while !i < la || !j < lb do
      if !j = lb || (!i < la && a.(!i) < b.(!j)) then begin
        f ~dest:(key_dest a.(!i)) ~next:(key_next a.(!i));
        incr i
      end
      else if !i = la || b.(!j) < a.(!i) then begin
        f ~dest:(key_dest b.(!j)) ~next:(key_next b.(!j));
        incr j
      end
      else begin
        incr i;
        incr j
      end
    done
  end

(* --- bulk building --- *)

type scratch = {
  mutable buf : int array;
  mutable len : int;
  mutable sorted : bool; (* [buf.(0 .. len-1)] is sorted, no duplicates *)
}

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let k = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > k do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- k
  done

(* In-place quicksort of [a.(lo .. hi-1)]: median-of-three pivot, Hoare
   partition, recursion on the smaller side only (logarithmic depth),
   insertion sort for short ranges. Allocates nothing. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) lsr 1) and last = hi - 1 in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(last) < a.(lo) then swap a last lo;
    if a.(last) < a.(mid) then swap a last mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref last in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      sort_range a lo (!j + 1);
      sort_range a !i hi
    end
    else begin
      sort_range a !i hi;
      sort_range a lo (!j + 1)
    end
  end

let normalize s =
  if not s.sorted then begin
    let a = s.buf in
    sort_range a 0 s.len;
    let n = ref 0 in
    for i = 0 to s.len - 1 do
      if !n = 0 || a.(i) <> a.(!n - 1) then begin
        a.(!n) <- a.(i);
        incr n
      end
    done;
    s.len <- !n;
    s.sorted <- true
  end

module Scratch = struct
  let create () = { buf = Array.make 16 0; len = 0; sorted = true }

  let clear s =
    s.len <- 0;
    s.sorted <- true

  let push s ~dest ~next =
    check ~dest ~next;
    if s.len = Array.length s.buf then begin
      let buf = Array.make (2 * s.len) 0 in
      Array.blit s.buf 0 buf 0 s.len;
      s.buf <- buf
    end;
    s.buf.(s.len) <- pack ~dest ~next;
    s.len <- s.len + 1;
    s.sorted <- false

  let freeze s =
    normalize s;
    if s.len = 0 then empty else Array.sub s.buf 0 s.len

  let equal s t =
    normalize s;
    prefix_equal s.buf s.len t

  let num_entries s =
    normalize s;
    runs s.buf s.len

  let compressed_size_bytes s ~fp_rate =
    normalize s;
    size_bytes s.buf s.len ~fp_rate
end

let pp fmt t =
  let pp_next fmt n =
    if n < 0 then Format.pp_print_string fmt "self"
    else Format.pp_print_int fmt n
  in
  let pp_entry fmt (next, ds) =
    Format.fprintf fmt "{dests=[%a]; next=%a}"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         Format.pp_print_int)
      ds pp_next next
  in
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_entry)
    (entries t)
