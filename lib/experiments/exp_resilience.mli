(** Reliability under churn: the transient-correctness sweep.

    Runs seeded fault scenarios (link flaps, a node outage, an SRLG cut,
    a lossy-link window — {!Faults.Scenario.random_churn}) against
    Centaur, BGP and OSPF on identical BRITE topologies, probing sampled
    (src, dest) pairs mid-convergence with {!Faults.Observer}. Renders a
    per-protocol availability table (blackhole time, transient-loop
    time, recovery and time-to-first-correct-path) plus the per-pair
    unavailability CDF. Scenarios fan out over the domain pool;
    aggregation is by index, so the output is byte-identical at any
    [CENTAUR_DOMAINS]. *)

type agg = {
  protocol : string;
  availability : float;         (** delivered / routable pair-samples *)
  blackhole_ms : float;
  loop_ms : float;
  unavailable_ms : float;       (** blackhole + loop *)
  unroutable_ms : float;        (** excused: policy offered no route *)
  pair_unavail : float array;
  recovery : float array;
  ttfc : float array;
  messages : int;
  losses : int;
}

type result = {
  scenarios : int;
  pairs : int;
  horizon : float;
  rows : agg list;  (** centaur, bgp, ospf *)
  registries : (string * Obs.Metrics.t) list;
      (** per protocol, the scenario registries merged in index order;
          [[]] unless [Config.emit_metrics] *)
}

val run : Config.t -> result
(** When [Config.trace_digest] is [Some path], every protocol run is
    traced and one MD5 of each run's normalized trace digest is written
    to [path] (identical for the same seed at any domain count). The
    aggregate rows, and {!render}, are unaffected by either
    observability option. *)

val render : result -> string
