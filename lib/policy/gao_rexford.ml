type route_class = Origin | Cust | Peer_r | Prov

let class_rank = function Origin -> 0 | Cust -> 1 | Peer_r -> 2 | Prov -> 3

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

let compare_routes discipline ~chooser ~dest a b =
  if a.pref <> b.pref then compare b.pref a.pref
  else
    let c = compare (class_rank a.cls) (class_rank b.cls) in
    if c <> 0 then c
    else
      match discipline with
      | Standard ->
        let c = compare a.len b.len in
        if c <> 0 then c else compare a.next_hop b.next_hop
      | (Class_only | Diverse | Arbitrary) when a.via_sibling <> b.via_sibling
        ->
        if a.via_sibling then 1 else -1
      | Class_only -> compare a.next_hop b.next_hop
      | Diverse ->
        let c =
          compare
            (local_pref ~chooser a.next_hop)
            (local_pref ~chooser b.next_hop)
        in
        if c <> 0 then c
        else
          let c = compare a.len b.len in
          if c <> 0 then c else compare a.next_hop b.next_hop
      | Arbitrary ->
        let c =
          compare
            (arbitrary_pref ~chooser ~dest a.next_hop)
            (arbitrary_pref ~chooser ~dest b.next_hop)
        in
        if c <> 0 then c else compare a.next_hop b.next_hop
