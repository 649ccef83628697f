(** AS-level topology annotated with business relationships.

    Nodes are the integers [0 .. num_nodes - 1]; in the inter-domain
    setting each node is an AS (the paper models "each AS as a node in the
    network", §5.1). Links are undirected, carry a propagation delay and a
    business relationship, and have a mutable up/down state so the
    simulator and the failure experiments can flip them without rebuilding
    the structure. Everything else is immutable after {!create}. *)

type link = {
  id : int;
  a : int;
  b : int;
  rel_ab : Relationship.t;
      (** [b]'s role relative to [a]: [rel_ab = Customer] means [b] is
          [a]'s customer. The role of [a] relative to [b] is
          [Relationship.invert rel_ab]. *)
  delay : float;  (** one-way propagation delay in milliseconds *)
}

type t

val create : n:int -> (int * int * Relationship.t * float) list -> t
(** [create ~n edges] builds a topology on nodes [0..n-1] from
    [(a, b, rel_ab, delay)] tuples. Raises [Invalid_argument] on
    out-of-range ids, self-loops, negative or non-finite (NaN, infinite)
    delays, delays over 10^6 ms, or duplicate links between the same
    pair. All links start up. *)

val num_nodes : t -> int

val num_links : t -> int

val link : t -> int -> link
(** Raises [Invalid_argument] on a bad id. *)

val links : t -> link array
(** All links (shared array — do not mutate). *)

type adj = {
  adj_off : int array;   (** [num_nodes + 1] offsets into the half-edge arrays *)
  adj_nbr : int array;   (** neighbor id per half-edge *)
  adj_rel : int array;   (** role-of-neighbor code per half-edge, see {!rel_of_code} *)
  adj_link : int array;  (** link id per half-edge *)
  adj_up : bool array;   (** live link state, indexed by link id *)
}
(** Read-only view of the CSR adjacency. Half-edge [k] of node [v]
    occupies slots [adj_off.(v) + k .. adj_off.(v + 1) - 1], sorted by
    ascending neighbor id — the exact order {!iter_neighbors} visits.
    The arrays are the topology's own storage: never write to them.
    [adj_up] aliases the live link state, so a view taken once stays
    current across {!set_up} flips. *)

val adj : t -> adj
(** Zero-copy CSR view for allocation-free solver loops that cannot
    afford a closure per {!iter_neighbors} call. *)

val rel_of_code : int -> Relationship.t
(** Decodes the stable small-int role encoding {!adj} uses:
    [Customer = 0], [Provider = 1], [Peer = 2], [Sibling = 3] (see the
    [code_*] constants). Raises on out-of-range codes. *)

val code_customer : int
val code_provider : int
val code_peer : int
val code_sibling : int

val iter_neighbors : t -> int -> (int -> Relationship.t -> int -> unit) -> unit
(** [iter_neighbors t v f] calls [f neighbor role_of_neighbor link_id]
    for every up link of [v], in ascending neighbor id order.
    Zero-allocation fast path: the adjacency is stored in flat CSR
    arrays (offsets / neighbor ids / relationship codes / link ids)
    built once at {!create}, and the visit allocates nothing. *)

val fold_neighbors :
  t -> int -> init:'acc -> f:('acc -> int -> Relationship.t -> int -> 'acc) ->
  'acc
(** [fold_neighbors t v ~init ~f] folds [f acc neighbor role link_id]
    over the up links of [v] in ascending neighbor id order, without
    allocating the intermediate list. *)

val degree : t -> int -> int
(** Degree counting only up links. *)

val full_degree : t -> int -> int
(** Degree ignoring link state. *)

val half_edge : t -> int -> int -> int
(** [half_edge t a b] is the CSR slot of [b] in [a]'s neighbor slice of
    {!adj} (link state ignored), or [-1] when [a] and [b] share no link or
    [a] is out of range. Binary search; allocates nothing. *)

val rel : t -> int -> int -> Relationship.t option
(** Role of [b] relative to [a] if an up link [a]–[b] exists. Answered
    from the CSR adjacency without allocating. *)

val rel_any : t -> int -> int -> Relationship.t option
(** Like {!rel} but ignoring link state. Business relationships are
    static contracts; protocol nodes may consult them for remote links
    without learning whether those links are currently up. *)

val link_between : t -> int -> int -> int option
(** Link id between the two nodes regardless of up/down state. *)

val is_up : t -> int -> bool

val set_up : t -> int -> bool -> unit
(** Flip a link's state. *)

val state_version : t -> int
(** Monotone counter bumped by every {!set_up} call that actually changes
    a link's state. Lets derived structures (cached shortest-path trees,
    solver snapshots) detect that the ground-truth link state moved under
    them without subscribing to individual flips. *)

val with_link_down : t -> int -> (unit -> 'a) -> 'a
(** Run a computation with one link forced down, restoring the previous
    state afterwards (exception-safe). *)

val is_connected : t -> bool
(** Connectivity over up links; [true] for the empty topology. *)

type relationship_counts = {
  peering : int;
  provider_customer : int;
  sibling : int;
}
(** Link counts by category, matching the columns of the paper's
    Table 3. *)

val relationship_counts : t -> relationship_counts

val iter_links : t -> (link -> unit) -> unit

val fold_links : t -> init:'acc -> f:('acc -> link -> 'acc) -> 'acc

val pp_summary : Format.formatter -> t -> unit
(** One-line [nodes/links peering/provider/sibling] rendering. *)
