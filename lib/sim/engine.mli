(** Discrete-event message-passing engine.

    Substitute for the DistComm/SSFNet platform the paper's prototype
    runs on (§5.3): nodes exchange messages over topology links with the
    links' propagation delays; CPU time is ignored ("we ignore the CPU
    delay while the link delays are generated automatically"); the
    network {e converges} when no more events are pending, and the
    convergence time of an event is the time of the last triggered
    event.

    The engine is deterministic: simultaneous events are processed in
    schedule order (the event queue ties equal times by a schedule
    counter), and the probabilistic
    loss model draws from a seeded generator in event order, so equal
    seeds give equal runs.

    Protocols plug in as callbacks returning {!action}s — messages to
    emit and timers to arm (BGP's MRAI batching needs timers); all
    protocol state lives on the protocol side. Messages do not survive
    the death of the link they are crossing: a message is lost if its
    link is down at delivery time, and also if the link {e bounced}
    (went down and came back up) while the message was in flight — each
    down transition starts a fresh session incarnation, and in-flight
    messages from the previous incarnation are discarded, matching the
    protocols' practice of resetting per-session state on a flip. Links
    may additionally be given a delivery loss probability ({!set_loss})
    to model lossy sessions. *)

type 'msg action =
  | Send of int * 'msg       (** deliver to a neighbor over the link *)
  | Timer of float * int     (** [Timer (delay, key)]: fire [on_timer]
                                 with [key] after [delay] ms *)

type 'msg handlers = {
  on_message : now:float -> node:int -> src:int -> 'msg -> 'msg action list;
  on_link_change : now:float -> node:int -> link_id:int -> 'msg action list;
      (** One endpoint notices its adjacent link changed state. *)
  on_timer : now:float -> node:int -> key:int -> 'msg action list;
  on_batch_end : now:float -> node:int -> 'msg action list;
      (** Called once after a maximal run of deliveries and link
          notifications hitting the same node at the same timestamp, and
          before any other event is processed. Delta-first protocols
          absorb updates in [on_message]/[on_link_change] (mark dirty,
          emit nothing) and recompute here, so one recomputation
          amortizes a simultaneous burst — correlated link cuts, node
          crashes, equal-delay flood fan-in. Protocols that do all work
          per event use {!no_batching}. *)
}

val no_timers : now:float -> node:int -> key:int -> 'msg action list
(** Handler for protocols that never arm timers (raises on call). *)

val no_batching : now:float -> node:int -> 'msg action list
(** Batch-end handler for protocols that recompute per event (returns
    no actions). *)

type 'msg t

type run_stats = {
  duration : float;   (** last-event time minus run start, ms; a
                          {!run_until} run extends to its horizon *)
  messages : int;     (** messages sent during the run *)
  units : int;        (** protocol-specific update units sent *)
  bytes : int;        (** wire bytes sent (0 unless the engine was given
                          a [bytes] pricer) *)
  deliveries : int;   (** messages delivered *)
  losses : int;       (** messages lost — dead or bounced link at
                          delivery time, or the probabilistic loss
                          model *)
  events : int;       (** total events processed *)
  waves : int;        (** delivery batches drained — one per
                          [on_batch_end] recompute, i.e. the number of
                          per-node delta waves the run coalesced its
                          events into *)
}

val zero_stats : run_stats
(** All counters zero: the unit of {!add_stats}. *)

val add_stats : run_stats -> run_stats -> run_stats
(** Componentwise sum — for harnesses that accumulate cost across
    [cold_start] / [run_until] / [run_to_quiescence] segments. *)

val create :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?bytes:('msg -> int) ->
  Topology.t ->
  units:('msg -> int) ->
  handlers:'msg handlers ->
  'msg t
(** [units] prices one message in protocol update units (per-prefix for
    path vector, per-link for Centaur, 1 for OSPF LSAs). [bytes] prices
    one message in serialized wire bytes — Centaur passes
    {!Centaur.Announce.wire_bytes}, whose Permission Lists are real
    Bloom-compressed encodings — and feeds the [engine.bytes] counter
    (default: every message is 0 bytes). All links start loss-free; the
    loss RNG starts from seed 0 (see {!seed_loss}).

    [trace] (default {!Obs.Trace.none}, i.e. disabled) receives the
    engine's structured events: an initial link-state snapshot, sends,
    deliveries, losses, link flips, timer activity and batch boundaries;
    the engine keeps the trace clock in sync so protocol handlers can
    emit their own events (dirty marks, recompute spans, RIB deltas)
    without threading [now].

    [metrics] (default: a private fresh registry) receives the engine's
    counters — [engine.messages], [engine.units], [engine.bytes],
    [engine.deliveries], [engine.losses], [engine.events],
    [engine.waves] — which {!run_stats} and {!mark}
    are derived from. Pass a registry to aggregate across engines or to
    export it; registries are single-domain, so give each engine of a
    pool-parallel sweep its own and merge afterwards. *)

val trace : 'msg t -> Obs.Trace.t
(** The trace given at {!create} ({!Obs.Trace.none} when untraced). *)

val metrics : 'msg t -> Obs.Metrics.t
(** The registry holding this engine's counters. *)

val now : 'msg t -> float

val last_event_time : 'msg t -> float
(** Timestamp of the last event actually processed (0 before any). After
    a {!run_until} whose horizon overshoots quiescence, this is the real
    settling time — {!now} reports the horizon the clock advanced to.
    Stream replay uses it to stamp per-update enqueue→stable latency. *)

val pending_events : 'msg t -> int
(** Events still queued (zero exactly when the network is quiescent). *)

val set_loss : 'msg t -> link_id:int -> rate:float -> unit
(** Set a link's delivery loss probability in \[0, 1\]. Applied
    independently per message at delivery time, from the seeded loss
    stream. Raises [Invalid_argument] on a bad id or rate. *)

val seed_loss : 'msg t -> int -> unit
(** Reset the loss draw stream. Call before a measurement run so loss
    patterns are reproducible regardless of engine history. *)

val perform : 'msg t -> node:int -> 'msg action list -> unit
(** Execute actions on behalf of a node: schedule message deliveries over
    its adjacent links (applying the links' delays; sends without an up
    link are dropped silently — the session is gone) and arm timers. *)

val flip_link : 'msg t -> link_id:int -> up:bool -> unit
(** Change a link's state now and schedule the two endpoints'
    [on_link_change] notifications. A transition to down starts a new
    session incarnation: messages already in flight on the link are
    lost even if the link is flipped back up before they would have
    arrived. *)

exception Diverged of { processed : int; pending : int; waves : int }
(** Raised by the run functions when the event budget is exhausted — the
    protocol is not converging. Carries the number of raw events
    processed, the number still pending in the queue, and the number of
    delta waves (delivery batches) those events were drained in — under
    batching the two counts diverge, and both matter for diagnosis. *)

type mark
(** Snapshot of the engine's counters, delimiting a measurement run. *)

val mark : 'msg t -> mark

val run_to_quiescence : ?max_events:int -> ?since:mark -> 'msg t -> run_stats
(** Process events until none remain; default budget 20 million events.
    Counters in the result cover the span since [since] (default: since
    this call) — pass a mark taken before injecting the initial sends so
    they are included. *)

val run_until :
  ?max_events:int -> ?since:mark -> 'msg t -> float -> run_stats
(** [run_until t horizon] processes every event scheduled at or before
    [horizon], leaves later events queued, and advances the clock to
    [horizon] (so injections performed next are stamped there). Protocol
    state can be inspected mid-convergence between calls. A sequence of
    [run_until] calls followed by {!run_to_quiescence} processes exactly
    the events one {!run_to_quiescence} would, with identical counter
    totals. *)
