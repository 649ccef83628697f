(** The link-flip convergence workload of §5.3.

    "We let a topology stabilize and then we sequentially flip each link
    in the topology, i.e., first remove the link and wait till the
    routing protocol converges; then bring the link back up and wait for
    the convergence again. After each flip we measure the total count of
    messages sent and the duration time required to re-stabilize." *)

type flip_sample = {
  link_id : int;
  down : Sim.Engine.run_stats;
  up : Sim.Engine.run_stats;
}

type result = {
  protocol : string;
  cold : Sim.Engine.run_stats;
  flips : flip_sample list;
}

val flip_links : Sim.Runner.t -> links:int list -> result
(** Cold-start the protocol, then flip each listed link down and back
    up, recording the two convergence runs per link. *)

val times : result -> float array
(** Convergence durations of all runs (down and up interleaved), for CDF
    plotting à la Figure 6. *)

val message_counts : result -> float array
(** Message counts of all runs, for Figure 7. *)
