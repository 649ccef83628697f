(** k-best policy-compliant paths (BGP-multipath semantics).

    The paper's §7 anticipates that "Centaur may better support
    multi-path routing since it can propagate multiple paths for a
    destination in a more compact and scalable way". This module
    computes the multi-path selections that such a system would
    propagate: for each destination, up to [k] candidate routes — one
    per neighbor offering an importable route, each extending that
    neighbor's own (single) best path, ranked by the standard
    Gao–Rexford preference. This is exactly how BGP multipath/add-path
    deployments form their route sets, and the k-best route-set model of
    Arjona-Villicaña et al., "The Internet's unexploited path
    diversity". *)

val ranked_candidates : Topology.t -> Solver.routes -> src:int -> Path.t list
(** Every loop-free policy-compliant route of [src] toward the
    destination solved in the routes, most preferred first: one per
    neighbor offering an importable route, each extending that
    neighbor's selection. The k-best set is the first [k] of the list.
    Empty when [src] is the destination or has no route. *)

val ranked_sets :
  Topology.t -> kmax:int -> sources:int list -> (int, Path.t list list) Hashtbl.t
(** The k-best route sets of several sources: one solver pass per
    destination, shared by all sources. Maps each source to its
    per-destination {!ranked_candidates} lists, each cut to its first
    [kmax] (destinations ascending, empty lists omitted). The k-best set
    for any [k <= kmax] is the prefix of each list. Raises
    [Invalid_argument] if [kmax < 1]. *)

val path_vector_cost : Path.t list -> int
(** Total hops a path-vector protocol announces for this path set — the
    add-path baseline Centaur's compactness is measured against. *)
