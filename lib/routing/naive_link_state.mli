(** The strawman the paper argues against (§2.1).

    A link-state protocol with policies naively bolted on: every node
    runs shortest-path on {e its own} filtered view of the topology
    (policy filtering hides links, so views differ across nodes — the
    paper's Figure 1), or applies {e its own} ranking to a shared view
    (Figure 2). Forwarding then concatenates per-node decisions that
    were computed against inconsistent assumptions, and packets can
    loop. This module makes the failure reproducible: the examples and
    tests build the paper's exact scenarios, follow the per-node
    decisions with {!Path.follow} to exhibit the loop, and then show
    Centaur's downstream-link announcements avoiding it. *)

type view = (int * int) list
(** The links a node believes exist (unordered endpoint pairs). *)

val next_hop :
  Topology.t -> view:view -> src:int -> dest:int -> int option
(** The forwarding decision of [src] toward [dest] computed by hop-count
    shortest path over [view] (ties toward the lowest neighbor id).
    [view] must be a subset of the topology's links; unknown pairs are
    ignored. Each node deciding over its own view toward one [dest]
    gives the next-hop function {!Path.follow} walks. *)
