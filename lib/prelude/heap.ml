(* Flat layout: entry [i] is [keys.(i)], [ties.(i)], [vals.(i)]. The
   heap is 4-ary (entry [i]'s children are [4i + 1 .. 4i + 4]), which
   halves the depth of a binary heap; sifting moves a hole rather than
   swapping, so each level costs one write per array. Slots at [size] and
   beyond hold [dummy], never a payload that was pushed. *)
type 'a t = {
  dummy : 'a;
  mutable keys : float array;
  mutable ties : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create ~dummy = { dummy; keys = [||]; ties = [||]; vals = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = if t.size = 0 then 16 else 2 * t.size in
  let keys = Array.make cap 0.0
  and ties = Array.make cap 0
  and vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.ties 0 ties 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.ties <- ties;
  t.vals <- vals

let push t ~key ~tie v =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and ties = t.ties and vals = t.vals in
  let i = ref t.size and rising = ref true in
  t.size <- t.size + 1;
  while !rising && !i > 0 do
    let p = (!i - 1) / 4 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && tie < Array.unsafe_get ties p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set ties !i (Array.unsafe_get ties p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set ties !i tie;
  Array.unsafe_set vals !i v

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty heap";
  Array.unsafe_get t.keys 0

let min_tie t =
  if t.size = 0 then invalid_arg "Heap.min_tie: empty heap";
  Array.unsafe_get t.ties 0

let min_value t =
  if t.size = 0 then invalid_arg "Heap.min_value: empty heap";
  Array.unsafe_get t.vals 0

(* Take the last entry out, then sift it down from the root's hole. *)
let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty heap";
  let n = t.size - 1 in
  let keys = t.keys and ties = t.ties and vals = t.vals in
  let key = Array.unsafe_get keys n
  and tie = Array.unsafe_get ties n
  and v = Array.unsafe_get vals n in
  Array.unsafe_set vals n t.dummy;
  t.size <- n;
  if n > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let first = (4 * !i) + 1 in
      if first >= n then sinking := false
      else begin
        let last = if first + 3 < n then first + 3 else n - 1 in
        let m = ref first in
        for j = first + 1 to last do
          let kj = Array.unsafe_get keys j
          and km = Array.unsafe_get keys !m in
          if
            kj < km
            || (kj = km && Array.unsafe_get ties j < Array.unsafe_get ties !m)
          then m := j
        done;
        let m = !m in
        let km = Array.unsafe_get keys m in
        if km < key || (km = key && Array.unsafe_get ties m < tie) then begin
          Array.unsafe_set keys !i km;
          Array.unsafe_set ties !i (Array.unsafe_get ties m);
          Array.unsafe_set vals !i (Array.unsafe_get vals m);
          i := m
        end
        else sinking := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set ties !i tie;
    Array.unsafe_set vals !i v
  end

let clear t =
  Array.fill t.vals 0 t.size t.dummy;
  t.size <- 0
