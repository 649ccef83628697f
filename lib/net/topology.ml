type link = {
  id : int;
  a : int;
  b : int;
  rel_ab : Relationship.t;
  delay : float;
}

(* Adjacency lives in CSR form: half-edge [k] of node [v] occupies slot
   [csr_off.(v) + k], slots sorted by ascending neighbor id. Flat int
   arrays keep the per-neighbor loops allocation-free and
   cache-friendly. *)
type t = {
  n : int;
  link_arr : link array;
  csr_off : int array;   (* n + 1 offsets into the three arrays below *)
  csr_nbr : int array;   (* neighbor id per half-edge *)
  csr_rel : int array;   (* role-of-neighbor code per half-edge *)
  csr_link : int array;  (* link id per half-edge *)
  up : bool array;
  mutable version : int;  (* bumped on every effective link-state change *)
}

let rel_code = function
  | Relationship.Customer -> 0
  | Relationship.Provider -> 1
  | Relationship.Peer -> 2
  | Relationship.Sibling -> 3

let code_rel =
  [| Relationship.Customer; Relationship.Provider; Relationship.Peer;
     Relationship.Sibling |]

let create ~n edges =
  if n < 0 then invalid_arg "Topology.create: negative node count";
  (* One packed key per unordered pair: no tuple keys, no polymorphic
     hash. *)
  let seen = Flat_tbl.create ~initial:(2 * List.length edges) () in
  let check (a, b, _, delay) =
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg
        (Printf.sprintf "Topology.create: node id out of range (%d, %d)" a b);
    if a = b then invalid_arg "Topology.create: self-loop";
    if not (Float.is_finite delay) then
      invalid_arg "Topology.create: non-finite delay";
    if delay < 0.0 then invalid_arg "Topology.create: negative delay";
    let key = (min a b * n) + max a b in
    if Flat_tbl.mem seen key then
      invalid_arg
        (Printf.sprintf "Topology.create: duplicate link %d-%d" (min a b)
           (max a b));
    Flat_tbl.set seen key 1
  in
  List.iter check edges;
  let link_arr =
    Array.of_list
      (List.mapi (fun id (a, b, rel_ab, delay) -> { id; a; b; rel_ab; delay }) edges)
  in
  (* Counting pass for the offsets, then each half-edge as one packed
     (neighbor, link id) key, so sorting a node's slice orders it by
     ascending neighbor id (neighbors are distinct). *)
  let csr_off = Array.make (n + 1) 0 in
  Array.iter
    (fun l ->
      csr_off.(l.a + 1) <- csr_off.(l.a + 1) + 1;
      csr_off.(l.b + 1) <- csr_off.(l.b + 1) + 1)
    link_arr;
  for v = 0 to n - 1 do
    csr_off.(v + 1) <- csr_off.(v + 1) + csr_off.(v)
  done;
  let half_edges = csr_off.(n) in
  let keys = Array.make (max half_edges 1) 0 in
  let next = Array.sub csr_off 0 n in
  let place v nb id =
    keys.(next.(v)) <- (nb lsl 31) lor id;
    next.(v) <- next.(v) + 1
  in
  Array.iter (fun l -> place l.a l.b l.id; place l.b l.a l.id) link_arr;
  let csr_nbr = Array.make (max half_edges 1) 0 in
  let csr_rel = Array.make (max half_edges 1) 0 in
  let csr_link = Array.make (max half_edges 1) 0 in
  for v = 0 to n - 1 do
    let lo = csr_off.(v) and len = csr_off.(v + 1) - csr_off.(v) in
    let slice = Array.sub keys lo len in
    Array.stable_sort Int.compare slice;
    Array.iteri
      (fun i key ->
        let l = link_arr.(key land ((1 lsl 31) - 1)) in
        csr_nbr.(lo + i) <- key lsr 31;
        csr_rel.(lo + i) <-
          rel_code (if l.a = v then l.rel_ab else Relationship.invert l.rel_ab);
        csr_link.(lo + i) <- l.id)
      slice
  done;
  { n; link_arr; csr_off; csr_nbr; csr_rel; csr_link;
    up = Array.make (Array.length link_arr) true; version = 0 }

type adj = {
  adj_off : int array;
  adj_nbr : int array;
  adj_rel : int array;
  adj_link : int array;
  adj_up : bool array;
}

let adj t =
  { adj_off = t.csr_off; adj_nbr = t.csr_nbr; adj_rel = t.csr_rel;
    adj_link = t.csr_link; adj_up = t.up }

let rel_of_code c = code_rel.(c)

let code_customer = 0
let code_provider = 1
let code_peer = 2
let code_sibling = 3

let num_nodes t = t.n

let num_links t = Array.length t.link_arr

let link t id =
  if id < 0 || id >= Array.length t.link_arr then
    invalid_arg "Topology.link: bad id";
  t.link_arr.(id)

let links t = t.link_arr

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg ("Topology." ^ name ^ ": bad node")

let iter_neighbors t v f =
  check_node t v "iter_neighbors";
  let up = t.up and nbr = t.csr_nbr and rel = t.csr_rel and lnk = t.csr_link in
  for k = t.csr_off.(v) to t.csr_off.(v + 1) - 1 do
    let id = Array.unsafe_get lnk k in
    if Array.unsafe_get up id then
      f (Array.unsafe_get nbr k)
        (Array.unsafe_get code_rel (Array.unsafe_get rel k))
        id
  done

let fold_neighbors t v ~init ~f =
  check_node t v "fold_neighbors";
  let up = t.up and nbr = t.csr_nbr and rel = t.csr_rel and lnk = t.csr_link in
  let hi = t.csr_off.(v + 1) in
  let rec go k acc =
    if k >= hi then acc
    else
      let id = Array.unsafe_get lnk k in
      let acc =
        if Array.unsafe_get up id then
          f acc (Array.unsafe_get nbr k)
            (Array.unsafe_get code_rel (Array.unsafe_get rel k))
            id
        else acc
      in
      go (k + 1) acc
  in
  go t.csr_off.(v) init

let degree t v =
  check_node t v "degree";
  let c = ref 0 in
  for k = t.csr_off.(v) to t.csr_off.(v + 1) - 1 do
    if t.up.(t.csr_link.(k)) then incr c
  done;
  !c

let full_degree t v =
  check_node t v "full_degree";
  t.csr_off.(v + 1) - t.csr_off.(v)

(* Pair lookups binary-search [a]'s ascending neighbor slice: the CSR
   arrays are the one adjacency, and the answer is a preallocated option,
   so a lookup allocates nothing. *)
let half_edge t a b =
  if a < 0 || a >= t.n then -1
  else begin
    let lo = ref t.csr_off.(a) and hi = ref (t.csr_off.(a + 1) - 1) in
    let found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let x = Array.unsafe_get t.csr_nbr mid in
      if x = b then begin
        found := mid;
        lo := !hi + 1
      end
      else if x < b then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let some_rel = Array.map Option.some code_rel

let link_between t a b =
  let k = half_edge t a b in
  if k < 0 then None else Some t.csr_link.(k)

let rel t a b =
  let k = half_edge t a b in
  if k < 0 || not t.up.(t.csr_link.(k)) then None
  else some_rel.(t.csr_rel.(k))

let rel_any t a b =
  let k = half_edge t a b in
  if k < 0 then None else some_rel.(t.csr_rel.(k))

let is_up t id =
  if id < 0 || id >= Array.length t.up then invalid_arg "Topology.is_up: bad id";
  t.up.(id)

let set_up t id v =
  if id < 0 || id >= Array.length t.up then invalid_arg "Topology.set_up: bad id";
  if t.up.(id) <> v then begin
    t.up.(id) <- v;
    t.version <- t.version + 1
  end

let state_version t = t.version

let with_link_down t id f =
  let prev = is_up t id in
  set_up t id false;
  Fun.protect ~finally:(fun () -> set_up t id prev) f

let is_connected t =
  if t.n = 0 then true
  else begin
    let visited = Array.make t.n false in
    let queue = Queue.create () in
    Queue.push 0 queue;
    visited.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      iter_neighbors t v (fun nb _ _ ->
          if not visited.(nb) then begin
            visited.(nb) <- true;
            incr count;
            Queue.push nb queue
          end)
    done;
    !count = t.n
  end

type relationship_counts = {
  peering : int;
  provider_customer : int;
  sibling : int;
}

let relationship_counts t =
  Array.fold_left
    (fun acc l ->
      match l.rel_ab with
      | Relationship.Peer -> { acc with peering = acc.peering + 1 }
      | Relationship.Customer | Relationship.Provider ->
        { acc with provider_customer = acc.provider_customer + 1 }
      | Relationship.Sibling -> { acc with sibling = acc.sibling + 1 })
    { peering = 0; provider_customer = 0; sibling = 0 }
    t.link_arr

let iter_links t f = Array.iter f t.link_arr

let fold_links t ~init ~f = Array.fold_left f init t.link_arr

let pp_summary fmt t =
  let c = relationship_counts t in
  Format.fprintf fmt "%d/%d nodes/links, %d/%d/%d peering/provider/sibling"
    t.n (num_links t) c.peering c.provider_customer c.sibling
