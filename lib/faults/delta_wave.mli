(** Batched delta waves: coalesce a group of concurrent control-plane
    changes into one net change set and drain it through a runner in a
    single step. The one applier of {!Scenario.change}; {!Injector.drive}
    feeds it every group that fault timelines, update streams and the
    containment experiment schedule.

    Applying every link flip, loss edge and policy override as its own
    injection pays a full absorb/recompute round per change. Under
    sustained churn most of that work is redundant: a link that flaps
    down and back up inside one group needs no recomputation at all,
    repeated writes to the same link collapse to the last one, and
    several policy overrides on one node owe that node exactly one
    recompute poke. {!apply} injects only the group's net effect — the
    engine's same-timestamp delivery batching then drains the merged
    wave with one [on_batch_end] recompute per touched node, and the
    dirty-set scheduler deduplicates per-destination work across the
    wave's changes. A group holding a single change injects exactly
    that change. *)

type wave = {
  events_seen : int;   (** change entries in the group: a k-link
                           {!Scenario.Set_links} counts k *)
  link_sets : int;     (** link flips that survived coalescing *)
  cancelled : int;     (** link entries whose net effect vanished —
                           flap cancellation and redundant re-assertions *)
  loss_sets : int;     (** distinct links given a (last-wins) loss rate *)
  policy_nodes : int;  (** distinct nodes poked for policy recompute *)
}

type t
(** The wave instruments, shared by every group one run applies. *)

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics], when given, receives the wave instruments: counters
    [wave.waves], [wave.events], [wave.cancelled_links] and the
    [wave.size] histogram (entries per drained wave). *)

val apply :
  ?policy:Policy.compiled ->
  t ->
  Topology.t ->
  Sim.Runner.t ->
  Scenario.change list ->
  wave
(** Apply one group of changes, given in arrival order (significant for
    policy overrides and last-wins targets): coalesce against [topo]'s
    live link state (the same instance the runner's engine mutates),
    inject the surviving flips atomically, set loss rates (last write
    per link wins), flip the policy overrides on [policy] in arrival
    order and poke each touched node once. Injected notifications stay
    queued — the caller steps the runner ([run_until] /
    [run_to_quiescence]) to drain the wave.

    [policy] must be the compiled policy the runner was built with. A
    group holding a {!Scenario.Set_policy} change without it raises
    [Invalid_argument] before anything is injected.

    Coalescing drops a link entry when its last target equals the link's
    current state: up→down→up inside one group cancels, and re-asserting
    the current state never wakes the endpoints. Surviving flips are
    injected in ascending link order; equal groups against equal
    topology states produce identical injections, keeping replay
    deterministic. *)
