(** The standard "customer / provider / peering" routing policies.

    Centaur "aims to support basic routing policies, i.e., route filtering
    and ranking, under standard customer/provider/peering business
    relationships" (paper §1). This module encodes those policies — the
    Gao–Rexford conditions — once, so the static solver, the BGP baseline
    and the Centaur protocol all share the exact same policy semantics:

    - {b Export (filtering)}: a route learned from a customer (or
      originated locally) may be exported to everyone; a route learned
      from a peer or a provider may be exported only to customers.
      Siblings exchange all routes. A route is exported at the class
      it was selected with ({!leader_class}).
    - {b Preference (ranking)}: {!compare_routes} is the one preference
      order, and the running {!best} keeps the leader by the same
      comparison. The stable solver, the Centaur node, the BGP decision
      process, the multipath ranking and the convergence analyzer's
      routing algebra all rank through them, fed by
      {!Policy.learn}. Higher import preference first, then customer
      over peer over provider routes, then the {!discipline}'s
      tie-break: by default shorter paths, then the lowest next-hop
      id. *)

type route_class =
  | Origin  (** the destination itself (locally originated prefix) *)
  | Cust    (** learned from a customer *)
  | Peer_r  (** learned from a peer *)
  | Prov    (** learned from a provider *)

val class_rank : route_class -> int
(** 0 for [Origin], then 1/2/3 for [Cust]/[Peer_r]/[Prov]; smaller is
    preferred. *)

val class_of_rank : int -> route_class
(** The inverse of {!class_rank}, for callers that store a class in a
    byte or a bit field. Raises [Invalid_argument] outside [0..3]. *)

val class_to_string : route_class -> string

val class_of_learned :
  neighbor_role:Relationship.t -> neighbor_class:route_class -> route_class
(** Class of a route learned from a neighbor: determined by the neighbor's
    role, except across sibling links where the class is inherited (the
    two ASes behave as one organisation; an [Origin] route inherited from
    a sibling behaves as [Cust]). *)

val exportable : cls:route_class -> to_role:Relationship.t -> bool
(** May a route of class [cls] be announced to a neighbor with the given
    role? Encodes the export rule above. *)

type candidate = {
  pref : int;          (** import preference (compiled policy); higher is
                           preferred, 0 when no policy is configured *)
  cls : route_class;
  len : int;           (** AS-path length in hops *)
  next_hop : int;      (** neighbor the route was learned from *)
  via_sibling : bool;  (** learned across a sibling link *)
}
(** One route as the choosing node ranks it. *)

type discipline =
  | Standard
      (** class rank, then AS-path length, then lowest next-hop id —
          BGP's decision process *)
  | Class_only
      (** class rank, then lowest next-hop id; length ignored. Because
          the tie-break order is the {e same at every node}, routes
          canalize onto shared gradients and P-graphs stay trees — a
          negative result the ablation benches document. *)
  | Diverse
      (** class rank, then a per-node pseudo-random local preference
          over next hops, then length, then id — every AS ranks its
          neighbors differently, the "diverse policies" of the paper's
          §2.1. Still canalized per source (candidate sets coincide for
          destinations sharing a downstream cone), so P-graphs stay
          near-trees; kept as an ablation. *)
  | Arbitrary
      (** class rank, then a per-(node, destination) pseudo-random
          tie-break — deployed BGP's effective behaviour, where ties
          fall to oldest-route/router-id and are not consistent across
          prefixes. Selections remain suffix-consistent per destination,
          but routes to different destinations diverge and re-merge, so
          P-graphs become genuinely multi-homed: this is the discipline
          that reproduces the paper's Table 4/5 magnitudes. *)

val compare_routes :
  discipline -> chooser:int -> dest:int -> candidate -> candidate -> int
(** The preference order of node [chooser] over its candidate routes
    toward [dest]. Negative means the first route is preferred; 0 only
    when every key ties. The keys, most significant first:

    - higher import preference;
    - lower class rank;
    - under {!Standard}: shorter length, then the lower next hop;
    - under the other disciplines: a directly learned route over a
      sibling-learned one, then the discipline's own tie-break (only
      {!Diverse} and {!Arbitrary} consult [chooser] and [dest]).

    Siblings sit outside the Gao–Rexford safety theorem. Without the
    sibling demotion, two siblings can each prefer the other's route by
    tie-break: a DISAGREE gadget with no stable state. {!Standard}
    leaves the flag out: its length key matches the three-phase solver
    and cannot sustain the gadget. *)

val origin : dest:int -> candidate
(** The route a destination holds to itself: preference 0, class
    [Origin], length 0, next hop [dest]. *)

(** {1 Running best}

    One selection's leader, kept as it is offered routes one at a time.
    The leader's keys are stored unboxed, so an offer allocates
    nothing. *)

type best

val best : discipline -> best
(** A running best ranking by the given discipline, holding no leader. *)

val start : best -> chooser:int -> dest:int -> unit
(** Drop the leader and begin node [chooser]'s selection toward
    [dest]. *)

val offer :
  best ->
  pref:int -> cls:route_class -> len:int -> next_hop:int ->
  via_sibling:bool ->
  bool
(** Offer one route. It becomes the leader, and the result is [true],
    when there is no leader yet or {!compare_routes} ranks it strictly
    before the leader: of equally ranked offers the first is kept. *)

val leader_class : best -> route_class
(** The leader's class, without building the candidate: the class a
    selection made through this running best exports its route with.
    [Origin] when nothing leads since the last {!start}. *)

val leader : best -> candidate option
(** The leader since the last {!start}; [None] when nothing was
    offered. *)
