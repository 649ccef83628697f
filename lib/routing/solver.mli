(** Static Gao–Rexford route solver.

    Computes, for one destination, the route every node {e selects} under
    the standard customer/provider/peering policies — i.e. the unique
    stable solution that a correct path-vector protocol converges to under
    the Gao–Rexford conditions. The paper's evaluation pipeline starts
    here: "we first derive a complete path set reaching all other nodes in
    the topology, according to the standard business relationship"
    (§5.2).

    The algorithm runs three phases per destination [d]:
    + customer routes: BFS from [d] up provider links (and across sibling
      links), assigning the most-preferred class;
    + peer routes: one peering hop from customer-routed nodes, extended
      across sibling links (Dijkstra order);
    + provider routes: multi-source Dijkstra cascading down
      provider→customer links (and sibling links) from every routed node.

    Within a class, routes are shortest; ties break toward the lowest
    next-hop id. By construction every selected route extends the
    next hop's own selected route, which is the consistency property
    (paper Observation 1) that Centaur's downstream-link announcements
    rely on. *)

type routes
(** Selected routes of every node toward one destination. *)

val dest : routes -> int

val to_dest : Topology.t -> int -> routes
(** [to_dest topo d] solves for destination [d] over up links. Raises
    [Invalid_argument] if [d] is out of range. *)

type workspace
(** Reusable solver scratch: the per-node arrays and the phase heap.
    Letting one domain solve thousands of destinations against a single
    workspace turns the solver's per-call allocation into a one-time
    cost (the evaluation pipeline's hot path). Not thread-safe — one
    workspace per domain. *)

val create_workspace : unit -> workspace
(** An empty workspace; arrays are sized on first use and grown on
    demand, so one workspace serves topologies of any size. *)

val to_dest_with : workspace -> Topology.t -> int -> routes
(** Like {!to_dest} but solving inside [ws]: the returned [routes]
    {e aliases the workspace arrays} (it is the same record on every
    call) and is only valid until the next [to_dest_with] call on the
    same workspace. Callers must extract whatever they need (paths,
    next hops) before reusing [ws]. A warm workspace makes this call
    allocation-free: reachability is epoch-stamped rather than
    [Array.fill]-reset, the phase heap is an inline int array, and the
    phases run directly over the CSR adjacency with no closures.
    [to_dest] is [to_dest_with] on a fresh private workspace. *)

val iter_path : routes -> int -> (int -> unit) -> unit
(** [iter_path r src f] calls [f] on every node of the selected path
    from [src] to the destination, in path order, without allocating.
    Does nothing when [src] has no route. *)

val reachable : routes -> int -> bool

val next_hop : routes -> int -> int option
(** Selected next hop of a node; [None] if unreachable or the destination
    itself. *)

val next_hop_id : routes -> int -> int
(** Allocation-free variant of {!next_hop}: the selected next hop of a
    node, or [-1] if the node is unreachable or is the destination
    itself. *)

val class_of : routes -> int -> Gao_rexford.route_class option

val class_raw : routes -> int -> Gao_rexford.route_class
(** Allocation-free variant of {!class_of}. Only meaningful when
    {!reachable} holds for the node; otherwise the value is stale
    scratch. *)

val length : routes -> int -> int option
(** Hop count of the selected route. *)

val path : routes -> int -> Path.t option
(** Full selected path from the given source to the destination, [None]
    if unreachable. The destination's own path is [[d]]. *)

val iter_reachable : routes -> (int -> unit) -> unit
(** Visit every node with a route, including the destination. *)

val path_set_from : Topology.t -> src:int -> Path.t list
(** All selected paths {e from} one source, one per reachable destination
    (excluding the trivial path to itself) — the input to the paper's
    [BuildGraph]. Runs {!to_dest} for every destination; intended for
    small/medium topologies or sampled sources. *)

