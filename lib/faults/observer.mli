(** Transient-correctness observer.

    Probes a protocol runner's {e data plane} at scheduled sample points
    while the network is (re)converging, and accumulates per-(src, dest)
    availability: blackhole time, transient-loop time,
    routability-over-time, per-disruption recovery time and
    time-to-first-correct-path. This is the instrument behind the
    paper's Figures 1/2 reliability story — steady-state convergence
    cost says nothing about what packets experience {e during}
    convergence.

    A probe follows next hops from the source with {!Path.follow},
    requiring every traversed link to be up at probe time: reaching the
    destination is [Delivered]; a missing next hop or a next hop over a
    dead link is [Blackholed] (the walk is [Stuck]); revisiting a node
    is [Looped]. Pairs with no policy-compliant route under the current
    link state (static solver ground truth) are [Unroutable] and excused
    from availability. *)

type verdict = Delivered | Blackholed | Looped | Unroutable

type t
(** Mutable accumulator for one scenario run on one runner. *)

val create :
  ?metrics:Obs.Metrics.t ->
  Topology.t -> pairs:(int * int) list -> sample_every:float -> t
(** The observer watches the given (src, dest) pairs; each sample
    accounts for [sample_every] ms of scenario time. Raises
    [Invalid_argument] on out-of-range or degenerate pairs.

    [metrics] (default: a private fresh registry) receives the
    observer's counters — [observer.fresh_probes],
    [observer.cached_probes], [observer.samples]. *)

val refresh_truth : t -> unit
(** Recompute the policy-reachability ground truth from the topology's
    current link state. Call once after cold start and after every
    link-state injection. *)

val probe : t -> Sim.Runner.t -> src:int -> dest:int -> verdict
(** Classify one pair right now (no accumulation). *)

val note_disruption : t -> Sim.Runner.t -> now:float -> unit
(** Record that an injection just took links down at [now]: the
    scenario-level recovery clock starts here, and every pair probing
    broken right now starts a time-to-first-correct-path clock. *)

val sample : t -> Sim.Runner.t -> now:float -> unit
(** Probe every pair and accumulate. Pairs whose destination is absent
    from the runner's drained [changed_dests] feed — and with the truth
    view unchanged since the last sample — replay their cached verdict
    instead of walking the data plane, so sampling a quiet network is
    free. {!refresh_truth} invalidates the whole cache (any link-state
    change can reroute a walk mid-path). *)

val metrics : t -> Obs.Metrics.t
(** The registry holding the observer's counters —
    [observer.fresh_probes] / [observer.cached_probes] say how often the
    changed-destination feed let the observer skip a data-plane walk;
    read them with {!Obs.Metrics.counter} + {!Obs.Metrics.value}. *)

type report = {
  protocol : string;
  pairs : int;
  samples : int;                 (** sample points taken *)
  availability : float;          (** delivered / routable pair-samples *)
  blackhole_ms : float;          (** summed over pairs *)
  loop_ms : float;
  unavailable_ms : float;        (** blackhole + loop *)
  unroutable_ms : float;         (** excused: no policy route existed *)
  routability : (float * float) array;
      (** (time, fraction of routable pairs delivered) curve *)
  pair_unavail_ms : float array; (** per-pair unavailable ms, for CDFs *)
  recovery_ms : float array;     (** per-disruption time until every
                                     routable pair forwards correctly *)
  ttfc_ms : float array;         (** per (pair, disruption): time to
                                     first correct path *)
  stats : Sim.Engine.run_stats;  (** control-plane cost of the whole
                                     scenario, losses included *)
}

val report : t -> protocol:string -> stats:Sim.Engine.run_stats -> report
