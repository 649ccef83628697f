(* Parallel arrays indexed by id. An entry's first node is its list's
   head. One-node paths sit in a node-indexed array; every other entry
   is chained from its rest: [first] heads the chain of the entries an
   id is the rest of, and [next] links the entries of one chain. So
   finding [v :: rest] walks the chain of [rest]'s extensions, and
   there is no hash table. A freed id keeps no list,
   and [next] links it into the free list, which hands ids out before
   the arrays grow. *)

let nil = -1

type t = {
  singles : int array; (* node -> id of [[node]], [nil] when absent *)
  mutable paths : Path.t array; (* id -> its path, [] when free *)
  mutable rest : int array; (* id -> id of its rest, [nil] for one node *)
  mutable count : int array; (* id -> holders *)
  mutable first : int array; (* id -> first entry it is the rest of *)
  mutable next : int array; (* id -> next entry of its chain, or next free id *)
  mutable top : int; (* every id handed out is below it *)
  mutable free : int;
}

let initial_cap = 64

let create ~nodes =
  if nodes < 1 then invalid_arg "Path_store.create: node bound must be >= 1";
  { singles = Array.make nodes nil;
    paths = Array.make initial_cap [];
    rest = Array.make initial_cap nil;
    count = Array.make initial_cap 0;
    first = Array.make initial_cap nil;
    next = Array.make initial_cap nil;
    top = 0;
    free = nil }

let grow t =
  let cap = Array.length t.paths in
  let grown a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.paths <- grown t.paths [];
  t.rest <- grown t.rest nil;
  t.count <- grown t.count 0;
  t.first <- grown t.first nil;
  t.next <- grown t.next nil

(* A fresh entry with no holder and no extension. *)
let add t p ~rest =
  let id =
    if t.free <> nil then begin
      let id = t.free in
      t.free <- t.next.(id);
      id
    end
    else begin
      if t.top = Array.length t.paths then grow t;
      let id = t.top in
      t.top <- id + 1;
      id
    end
  in
  t.paths.(id) <- p;
  t.rest.(id) <- rest;
  t.first.(id) <- nil;
  id

let path t id = if id = nil then [] else t.paths.(id)

let head t id = match t.paths.(id) with v :: _ -> v | [] -> nil

let single t v =
  match t.singles.(v) with
  | -1 ->
    let id = add t [ v ] ~rest:nil in
    t.singles.(v) <- id;
    id
  | id -> id

let extend t v rest =
  let e = ref t.first.(rest) in
  while !e <> nil && head t !e <> v do
    e := t.next.(!e)
  done;
  if !e <> nil then !e
  else begin
    let id = add t (v :: t.paths.(rest)) ~rest in
    t.next.(id) <- t.first.(rest);
    t.first.(rest) <- id;
    t.count.(rest) <- t.count.(rest) + 1;
    id
  end

let acquire t id =
  if t.paths.(id) = [] then invalid_arg "Path_store.acquire: freed id";
  t.count.(id) <- t.count.(id) + 1

(* Take [id] out of the chain of [rest]'s extensions. *)
let unchain t ~rest id =
  if t.first.(rest) = id then t.first.(rest) <- t.next.(id)
  else begin
    let e = ref t.first.(rest) in
    while t.next.(!e) <> id do
      e := t.next.(!e)
    done;
    t.next.(!e) <- t.next.(id)
  end

let rec release t id =
  let c = t.count.(id) - 1 in
  if c < 0 then invalid_arg "Path_store.release: id not held";
  t.count.(id) <- c;
  if c = 0 then begin
    let rest = t.rest.(id) in
    if rest = nil then t.singles.(head t id) <- nil else unchain t ~rest id;
    t.paths.(id) <- [];
    t.rest.(id) <- nil;
    t.next.(id) <- t.free;
    t.free <- id;
    if rest <> nil then release t rest
  end

let entries t =
  let acc = ref [] in
  for id = t.top - 1 downto 0 do
    match t.paths.(id) with [] -> () | p -> acc := (p, t.count.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> Path.compare a b) !acc
