type route_class = Origin | Cust | Peer_r | Prov

let class_rank = function Origin -> 0 | Cust -> 1 | Peer_r -> 2 | Prov -> 3

let class_of_rank = function
  | 0 -> Origin
  | 1 -> Cust
  | 2 -> Peer_r
  | 3 -> Prov
  | _ -> invalid_arg "Gao_rexford.class_of_rank: rank outside 0..3"

let class_to_string = function
  | Origin -> "origin"
  | Cust -> "customer-route"
  | Peer_r -> "peer-route"
  | Prov -> "provider-route"

let class_of_learned ~neighbor_role ~neighbor_class =
  match (neighbor_role : Relationship.t) with
  | Relationship.Customer -> Cust
  | Relationship.Peer -> Peer_r
  | Relationship.Provider -> Prov
  | Relationship.Sibling -> (
    match neighbor_class with
    | Origin -> Cust
    | (Cust | Peer_r | Prov) as c -> c)

let exportable ~cls ~to_role =
  match (to_role : Relationship.t) with
  | Relationship.Customer | Relationship.Sibling -> true
  | Relationship.Peer | Relationship.Provider -> (
    match cls with
    | Origin | Cust -> true
    | Peer_r | Prov -> false)

type candidate = {
  pref : int;
  cls : route_class;
  len : int;
  next_hop : int;
  via_sibling : bool;
}

type discipline = Standard | Class_only | Diverse | Arbitrary

(* SplitMix64-style mix of a hashed key, reduced to a rank in [0, 1024). *)
let mix10 key =
  let z = Int64.of_int key in
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.logand z 1023L)

(* Diverse: the chooser's stand-in for an operator-set local preference
   over its neighbors. *)
let local_pref ~chooser next_hop =
  mix10 ((chooser * 0x3779FB) lxor (next_hop * 0x9E3779))

(* Arbitrary: a tie-break that also varies per destination. *)
let arbitrary_pref ~chooser ~dest next_hop =
  mix10 ((chooser * 0x2545F4) lxor (dest * 0x9E3779) lxor (next_hop * 0x85EBCA))

(* The one order, over two routes' unboxed keys: [a]'s preference,
   class, length, next hop and sibling flag (pa, ca, la, na, sa) against
   [b]'s. [compare_routes] and the running best both call it. *)
let compare_keys discipline ~chooser ~dest pa ca la na sa pb cb lb nb sb =
  if pa <> pb then Int.compare pb pa
  else
    let c = Int.compare (class_rank ca) (class_rank cb) in
    if c <> 0 then c
    else
      match discipline with
      | Standard ->
        let c = Int.compare la lb in
        if c <> 0 then c else Int.compare na nb
      | (Class_only | Diverse | Arbitrary) when sa <> sb -> if sa then 1 else -1
      | Class_only -> Int.compare na nb
      | Diverse ->
        let c =
          Int.compare (local_pref ~chooser na) (local_pref ~chooser nb)
        in
        if c <> 0 then c
        else
          let c = Int.compare la lb in
          if c <> 0 then c else Int.compare na nb
      | Arbitrary ->
        let c =
          Int.compare
            (arbitrary_pref ~chooser ~dest na)
            (arbitrary_pref ~chooser ~dest nb)
        in
        if c <> 0 then c else Int.compare na nb

let compare_routes discipline ~chooser ~dest a b =
  compare_keys discipline ~chooser ~dest a.pref a.cls a.len a.next_hop
    a.via_sibling b.pref b.cls b.len b.next_hop b.via_sibling

let origin ~dest =
  { pref = 0; cls = Origin; len = 0; next_hop = dest; via_sibling = false }

(* The leader's keys live in the record itself, so an offer writes
   immediates and allocates nothing. *)
type best = {
  discipline : discipline;
  mutable chooser : int;
  mutable dest : int;
  mutable held : bool;  (* an offer has been taken since [start] *)
  mutable l_pref : int;
  mutable l_cls : route_class;
  mutable l_len : int;
  mutable l_next_hop : int;
  mutable l_via_sibling : bool;
}

let best discipline =
  { discipline;
    chooser = 0;
    dest = 0;
    held = false;
    l_pref = 0;
    l_cls = Origin;
    l_len = 0;
    l_next_hop = 0;
    l_via_sibling = false }

let start b ~chooser ~dest =
  b.chooser <- chooser;
  b.dest <- dest;
  b.held <- false

let offer b ~pref ~cls ~len ~next_hop ~via_sibling =
  let leads =
    (not b.held)
    || compare_keys b.discipline ~chooser:b.chooser ~dest:b.dest pref cls len
         next_hop via_sibling b.l_pref b.l_cls b.l_len b.l_next_hop
         b.l_via_sibling
       < 0
  in
  if leads then begin
    b.held <- true;
    b.l_pref <- pref;
    b.l_cls <- cls;
    b.l_len <- len;
    b.l_next_hop <- next_hop;
    b.l_via_sibling <- via_sibling
  end;
  leads

let leader_class b = if b.held then b.l_cls else Origin

let leader b =
  if b.held then
    Some
      { pref = b.l_pref;
        cls = b.l_cls;
        len = b.l_len;
        next_hop = b.l_next_hop;
        via_sibling = b.l_via_sibling }
  else None
