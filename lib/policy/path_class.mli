(** Route class of a concrete path.

    Given the full forwarding path and the business relationships along
    it, compute the {!Gao_rexford.route_class} of the route as seen by
    the path's source: the class is determined by the source's first hop,
    with sibling links inheriting the class from further downstream.
    Both the Centaur node (which reconstructs neighbors' full paths from
    P-graphs) and the test oracles use this to rank and filter
    candidates. *)

val class_of : Topology.t -> Path.t -> Gao_rexford.route_class option
(** [class_of topo p] is the class of route [p] at [Path.source p];
    [None] if some consecutive pair shares no link at all. Link up/down
    state is ignored — relationships are static contracts a node may
    consult without learning the remote link's liveness. The single-node
    path is [Origin]. *)
