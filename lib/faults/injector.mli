(** Scenario execution: replay a compiled fault timeline against a
    protocol runner, interleaving injections with observer samples.

    The schedule's times are relative to the steady state reached by
    [cold_start] (t = 0 is "converged, nothing pending"). At each
    timeline point the runner is stepped with [run_until]; then {e all}
    events sharing that timestamp drain as one {!Delta_wave} —
    concurrent flaps coalesce, per-destination dirty work dedups across
    the members, loss-rate updates land on the engine's seeded loss
    stream (re-seeded from the scenario seed), and the observer's ground
    truth and disruption clocks update once per wave rather than once
    per event. At each sample point the observer probes every watched
    pair — so blackhole and transient-loop windows that close before
    quiescence are measured, not inferred. Changes scheduled past the
    scenario horizon are dropped. Fully deterministic: equal (scenario,
    topology, runner construction) triples produce byte-identical
    reports. *)

val run :
  ?metrics:Obs.Metrics.t ->
  ?policy:Policy.compiled ->
  Sim.Runner.t ->
  topo:Topology.t ->
  scenario:Scenario.t ->
  pairs:(int * int) list ->
  Observer.report
(** [topo] must be the same instance the runner's engine mutates — the
    observer reads its live link state for ground truth. The report's
    [stats] cover cold start, the whole observed window and the final
    drain to quiescence.

    [policy] must be the same compiled policy the runner was built with;
    it is required (checked up front, [Invalid_argument]) whenever the
    scenario contains policy faults. [Set_policy] members flip the
    overrides through {!Delta_wave.apply}, in timeline order, and the
    wave pokes the runner's [on_policy_change] once with the sorted,
    deduplicated node list.
    Ground truth is {e not} refreshed on policy events — adversarial
    overrides do not change what routes {e should} be, so the observer
    keeps judging forwarding against the honest Gao–Rexford baseline.

    [metrics], when given, receives the run's full registry: the wave
    instruments (registered up front) plus, after the drain, the runner
    engine's counters merged with the observer's.
    The report itself is unchanged by the option, so result comparisons
    across runs stay byte-identical. *)
