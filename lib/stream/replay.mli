(** Stream replay: drive a protocol runner through a seeded update
    stream, event-at-a-time or in batched delta waves, measuring
    per-update enqueue→stable latency.

    Both modes apply the same events at the same relative times and
    converge the network fully at the end, so for loss-free streams the
    final forwarding state is identical — the QCheck property pinned in
    the test suite. Both drain every group of events through a
    {!Faults.Delta_wave}; what differs is the grouping, and so the work:
    [Event_at_a_time] drains a one-event wave per event, paying one
    injection and one convergence wavefront each, while [Waves w]
    accumulates each window of [w] ms and drains one coalesced wave per
    window. *)

type mode =
  | Event_at_a_time  (** every event is its own wave at its own
                         timestamp *)
  | Waves of float   (** events of ((k-1)·w, k·w] drain together at k·w *)

type outcome = {
  events : int;    (** stream events ingested *)
  waves : int;     (** waves drained: one per event, or one per
                       non-empty window *)
  cancelled : int; (** link events coalesced away (0 event-at-a-time:
                       a generated stream never repeats a link's state) *)
  stats : Sim.Engine.run_stats;
      (** summed over the whole replay, cold start excluded *)
  latencies : float array;
      (** per-update enqueue→stable sim-time latency, stream order: from
          the event's arrival [at] to the first moment the network is
          fully quiescent at-or-after the event was applied (windowed
          batching pays its queueing delay here) *)
  makespan : float;
      (** last stable time minus replay start, sim ms *)
}

val replay :
  ?metrics:Obs.Metrics.t ->
  ?policy:Policy.compiled ->
  topo:Topology.t ->
  stream:Update_stream.t ->
  mode:mode ->
  Sim.Runner.t ->
  outcome
(** Cold-starts the runner (stream times are relative to the converged
    steady state), replays the stream in the given mode, and drains to
    quiescence. The engine's loss stream is re-seeded from the stream
    seed, so equal [(topology, stream, mode, runner construction)] give
    byte-identical outcomes.

    [topo] must be the instance the runner's engine mutates (wave
    coalescing reads its live link state). [policy] must be the compiled
    policy the runner was built with; required ([Invalid_argument])
    when the stream carries policy updates. [metrics], when given,
    receives the [stream.latency_ms] histogram, the wave instruments
    and, after the drain, the runner engine's counters. *)
