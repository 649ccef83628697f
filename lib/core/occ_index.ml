let nil = -1

type t = {
  (* key -> first entry of its chain; a key whose chain empties stays
     bound to [nil] rather than leaving a tombstone, so key churn never
     forces the table to compact. *)
  heads : Flat_tbl.t;
  mutable e_key : int array;
  mutable e_value : int array;
  mutable e_aux : int array;
  mutable e_prev : int array; (* key chain, both ways *)
  mutable e_succ : int array;
  mutable e_owner : int array; (* owner chain; the free list when free *)
  mutable hwm : int;
  mutable free : int;
}

let initial_cap = 16

let create () =
  { heads = Flat_tbl.create ();
    e_key = Array.make initial_cap nil;
    e_value = Array.make initial_cap 0;
    e_aux = Array.make initial_cap 0;
    e_prev = Array.make initial_cap nil;
    e_succ = Array.make initial_cap nil;
    e_owner = Array.make initial_cap nil;
    hwm = 0;
    free = nil }

let grow t =
  let cap = Array.length t.e_key in
  let g a =
    let a' = Array.make (2 * cap) nil in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.e_key <- g t.e_key;
  t.e_value <- g t.e_value;
  t.e_aux <- g t.e_aux;
  t.e_prev <- g t.e_prev;
  t.e_succ <- g t.e_succ;
  t.e_owner <- g t.e_owner

let add t ~key ~value ~aux ~owner =
  let e =
    if t.free <> nil then begin
      let e = t.free in
      t.free <- t.e_owner.(e);
      e
    end
    else begin
      if t.hwm = Array.length t.e_key then grow t;
      let e = t.hwm in
      t.hwm <- e + 1;
      e
    end
  in
  let head = Flat_tbl.find_default t.heads key ~default:nil in
  t.e_key.(e) <- key;
  t.e_value.(e) <- value;
  t.e_aux.(e) <- aux;
  t.e_prev.(e) <- nil;
  t.e_succ.(e) <- head;
  if head <> nil then t.e_prev.(head) <- e;
  Flat_tbl.set t.heads key e;
  t.e_owner.(e) <- owner;
  e

let remove t e =
  let p = t.e_prev.(e) and s = t.e_succ.(e) in
  if s <> nil then t.e_prev.(s) <- p;
  if p <> nil then t.e_succ.(p) <- s else Flat_tbl.set t.heads t.e_key.(e) s;
  let owner_next = t.e_owner.(e) in
  t.e_owner.(e) <- t.free;
  t.free <- e;
  owner_next

let key t e = t.e_key.(e)

let value t e = t.e_value.(e)

let aux t e = t.e_aux.(e)

let first t key = Flat_tbl.find_default t.heads key ~default:nil

let next t e = t.e_succ.(e)
