(** The link-flip convergence workload of §5.3.

    "We let a topology stabilize and then we sequentially flip each link
    in the topology, i.e., first remove the link and wait till the
    routing protocol converges; then bring the link back up and wait for
    the convergence again. After each flip we measure the total count of
    messages sent and the duration time required to re-stabilize."

    {!flip_groups} extends the harness to correlated failures: a group
    of links (a shared-risk link group, or every link adjacent to a
    crashing node) is cut atomically, re-converged, then restored
    atomically — the fault-injection scenarios reuse this instead of
    bypassing the harness. *)

type flip_sample = {
  link_id : int;
  down : Sim.Engine.run_stats;
  up : Sim.Engine.run_stats;
  down_changed : int;
      (** destinations whose selected route changed anywhere during the
          down run, per the runner's [changed_dests] feed *)
  up_changed : int;
}

type result = {
  protocol : string;
  cold : Sim.Engine.run_stats;
  flips : flip_sample list;
}

type group_sample = {
  links : int list;           (** the correlated group, cut atomically *)
  g_down : Sim.Engine.run_stats;
  g_up : Sim.Engine.run_stats;
  g_down_changed : int;  (** changed destinations, as in {!flip_sample} *)
  g_up_changed : int;
}
(** One correlated-failure sample: all links of the group go down in the
    same instant (one convergence run), then all come back (another). *)

type group_result = {
  g_protocol : string;
  g_cold : Sim.Engine.run_stats;
  groups : group_sample list;
}

val flip_links :
  ?metrics:Obs.Metrics.t -> Sim.Runner.t -> links:int list -> result
(** Cold-start the protocol, then flip each listed link down and back
    up, recording the two convergence runs per link.

    [metrics], when given, accumulates per-run instruments:
    [convergence.runs], [convergence.messages], [convergence.units],
    [convergence.changed_dests] counters and a
    [convergence.duration_ms] histogram. The returned result is
    unaffected. *)

val flip_groups :
  ?metrics:Obs.Metrics.t -> Sim.Runner.t -> groups:int list list ->
  group_result
(** Cold-start, then for each group cut all its links atomically (via
    the runner's [flip_many]), converge, restore them atomically, and
    converge again. *)

val times : result -> float array
(** Convergence durations of all runs (down and up interleaved), for CDF
    plotting à la Figure 6. *)

val message_counts : result -> float array
(** Message counts of all runs, for Figure 7. *)

val unit_counts : result -> float array
(** Update-unit counts of all runs. *)

val changed_counts : result -> float array
(** Changed-destination counts of all runs (down and up interleaved) —
    how much of the forwarding state each re-convergence actually
    touched, the denominator-free companion to {!message_counts}. *)

val group_times : group_result -> float array
(** Convergence durations of the correlated runs (cut and restore
    interleaved). *)

val group_message_counts : group_result -> float array
