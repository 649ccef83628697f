(** One loop for every run of changes: fault timelines ({!run}), update
    streams ([Stream.Replay]) and the containment experiment step their
    runners through {!drive}. *)

type hooks = {
  before_wave : at:float -> Scenario.event list -> unit;
  after_wave : at:float -> Scenario.event list -> Delta_wave.wave -> unit;
  sample : float -> unit;
}

val drive :
  ?metrics:Obs.Metrics.t ->
  ?policy:Policy.compiled ->
  Sim.Runner.t ->
  topo:Topology.t ->
  seed:int ->
  waves:(float * Scenario.event list) list ->
  samples:float list ->
  hooks ->
  Sim.Engine.run_stats
(** Step an already cold-started runner through ascending [waves] and
    [samples], re-seeding its loss stream from [seed] first. Times are
    relative to the converged state: t = 0 is the runner's clock now.

    At a wave's time: [run_until], [before_wave], apply the group as one
    {!Delta_wave}, [after_wave]. At a sample's time: [run_until], then
    [sample]. A wave and a sample at one time fire wave first, so the
    sample sees the instant after the change with its notifications
    still queued. Waves after the last sample still apply; then one
    [run_to_quiescence] drains. Equal inputs make identical runner
    calls.

    Returns the summed stats of those run calls. [topo] must be the
    instance the runner's engine mutates, and [policy] the compiled
    policy the runner was built with; a wave holding a
    {!Scenario.Set_policy} change without it raises [Invalid_argument]
    before that wave injects anything. [metrics], when given, receives
    the wave instruments and, after the drain, the runner's registry. *)

val observe : Observer.t -> Sim.Runner.t -> hooks
(** The observer's hooks: after a wave, refresh ground truth if it
    changed links and start the disruption clocks if it
    {!Scenario.disrupts}; at a sample, probe every watched pair. Policy
    overrides leave ground truth alone, so hijacked and leaked
    forwarding is judged against the honest Gao–Rexford baseline. *)

val run :
  ?metrics:Obs.Metrics.t ->
  ?policy:Policy.compiled ->
  Sim.Runner.t ->
  topo:Topology.t ->
  scenario:Scenario.t ->
  pairs:(int * int) list ->
  Observer.report
(** Cold-start the runner and {!drive} it through the compiled
    scenario, one wave per timestamp, observing [pairs] with the
    {!observe} hooks at {!Scenario.sample_times}, so transient blackholes
    and loops are measured, not inferred. Changes past the horizon are
    dropped. [topo] and [policy] are as for {!drive}. The report's
    [stats] cover cold start and {!drive}. [metrics], when given,
    receives {!drive}'s registry and then the observer's; the report is
    unchanged by it. *)
