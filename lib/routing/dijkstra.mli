(** Shortest-path tree over link delays — the OSPF route computation.

    Traditional link-state protocols run Dijkstra on a globally consistent
    topology; the OSPF baseline of the paper's evaluation does exactly
    that, with link delays as weights and no policies. *)

type tree

val from : Topology.t -> src:int -> tree
(** Shortest-path tree rooted at [src] over up links. Ties in distance
    break toward the lowest predecessor id, keeping route choice
    deterministic. *)

val from_filtered : Topology.t -> src:int -> link_ok:(int -> bool) -> tree
(** Like {!from} but additionally restricted to up links for which
    [link_ok link_id] holds — the route computation over a node's
    {e believed} topology (a link-state database may disagree with the
    ground truth mid-convergence) without mutating the shared topology. *)

val dist : tree -> int -> float option
(** Distance from the root; [None] if unreachable. *)

val predecessor : tree -> int -> int option
(** Predecessor on the shortest path from the root; [None] at the root or
    when unreachable. *)

val path_to : tree -> int -> Path.t option
(** Path root → node. *)

val next_hop_to : tree -> int -> int option
(** First hop on the path root → node. *)
