(** Stream replay: a client of {!Faults.Injector.drive} that steps a
    protocol runner through a seeded update stream, event-at-a-time or
    in batched delta waves, measuring per-update enqueue→stable latency.

    Both modes apply the same events at the same relative times and
    converge the network fully at the end, so for loss-free streams the
    final forwarding state is identical — the QCheck property pinned in
    the test suite. What differs is the grouping, and so the work:
    [Event_at_a_time] drains a one-event wave per event, while [Waves w]
    drains one coalesced wave per window of [w] ms. *)

type mode =
  | Event_at_a_time  (** every event is its own wave at its own
                         timestamp *)
  | Waves of float   (** events of ((k-1)·w, k·w] drain together at k·w,
                         computed in floats and never earlier than the
                         event; the window must be finite and > 0 *)

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
  policy:Policy.compiled ->
  topo:Topology.t ->
  stream:Update_stream.t ->
  mode:mode ->
  Sim.Runner.t ->
  outcome
(** Cold-starts the runner, then drives it through the stream's waves
    (see {!Faults.Injector.drive}, which also seeds loss from the stream
    seed and takes [topo], [policy] and [metrics]). [policy] is the
    compiled policy the runner was built with: a stream's policy events
    edit it in place. [metrics], when
    given, also receives the [stream.latency_ms] histogram. Equal
    [(topology, stream, mode, runner construction)] give byte-identical
    outcomes. Raises [Invalid_argument], before the cold start, on a
    [Waves] window that is not finite and positive. *)
