(** BRITE-style topology generation (Medina et al., MASCOTS 2001).

    The paper uses BRITE to generate the topologies its prototype runs on
    (§5.1, §5.3): Barabási–Albert-style graphs with link delays drawn
    uniformly from \[0, 5\] ms, business relationships inferred from node
    degree afterwards. This module reproduces that pipeline: the
    Barabási–Albert model and the degree-based annotation. *)

type edge = int * int * float
(** [(a, b, delay_ms)] *)

val barabasi_albert : Rng.t -> n:int -> m:int -> max_delay:float -> edge list
(** Preferential attachment: an initial clique of [m + 1] nodes, then
    each new node attaches to [m] distinct existing nodes with
    probability proportional to degree. Delays uniform in
    \[0, max_delay\]. Raises [Invalid_argument] if [n < m + 1] or
    [m < 1]. The result is connected. *)

val annotated :
  Rng.t -> n:int -> m:int -> max_delay:float -> num_tiers:int -> Topology.t
(** The paper's §5.3 pipeline: Barabási–Albert edges, then
    customer/provider/peer relationships inferred from degree-based
    tiers (the highest-degree nodes become Tier-1 providers). *)
