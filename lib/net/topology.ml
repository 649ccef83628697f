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
  (* O(1) pair lookup: (a, b) -> (role of b w.r.t. a, link id). *)
  pair : (int * int, Relationship.t * int) Hashtbl.t;
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
  let seen = Hashtbl.create (List.length edges) in
  let check (a, b, _, delay) =
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg
        (Printf.sprintf "Topology.create: node id out of range (%d, %d)" a b);
    if a = b then invalid_arg "Topology.create: self-loop";
    if delay < 0.0 then invalid_arg "Topology.create: negative delay";
    let key = (min a b, max a b) in
    if Hashtbl.mem seen key then
      invalid_arg
        (Printf.sprintf "Topology.create: duplicate link %d-%d" (min a b)
           (max a b));
    Hashtbl.add seen key ()
  in
  List.iter check edges;
  let link_arr =
    Array.of_list
      (List.mapi (fun id (a, b, rel_ab, delay) -> { id; a; b; rel_ab; delay }) edges)
  in
  let adj = Array.make (max n 1) [] in
  Array.iter
    (fun l ->
      adj.(l.a) <- (l.b, l.rel_ab, l.id) :: adj.(l.a);
      adj.(l.b) <- (l.a, Relationship.invert l.rel_ab, l.id) :: adj.(l.b))
    link_arr;
  (* Deterministic neighbor order: ascending neighbor id. *)
  Array.iteri
    (fun i lst -> adj.(i) <- List.sort (fun (x, _, _) (y, _, _) -> compare x y) lst)
    adj;
  let csr_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    csr_off.(v + 1) <- csr_off.(v) + List.length adj.(v)
  done;
  let half_edges = csr_off.(n) in
  let csr_nbr = Array.make (max half_edges 1) 0 in
  let csr_rel = Array.make (max half_edges 1) 0 in
  let csr_link = Array.make (max half_edges 1) 0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i (nb, rel, id) ->
        let k = csr_off.(v) + i in
        csr_nbr.(k) <- nb;
        csr_rel.(k) <- rel_code rel;
        csr_link.(k) <- id)
      adj.(v)
  done;
  let pair = Hashtbl.create (2 * Array.length link_arr) in
  Array.iter
    (fun l ->
      Hashtbl.replace pair (l.a, l.b) (l.rel_ab, l.id);
      Hashtbl.replace pair (l.b, l.a) (Relationship.invert l.rel_ab, l.id))
    link_arr;
  { n; link_arr; csr_off; csr_nbr; csr_rel; csr_link;
    up = Array.make (Array.length link_arr) true; version = 0; pair }

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

let link_between t a b =
  Option.map snd (Hashtbl.find_opt t.pair (a, b))

let rel t a b =
  match Hashtbl.find_opt t.pair (a, b) with
  | Some (r, id) when t.up.(id) -> Some r
  | Some _ | None -> None

let rel_any t a b = Option.map fst (Hashtbl.find_opt t.pair (a, b))

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
