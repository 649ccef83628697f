(** Uniform protocol-under-test interface.

    Each protocol implementation (BGP, OSPF, Centaur) packages itself as
    one of these records so the convergence experiments can drive any of
    them interchangeably: cold-start it, flip links, and inspect the
    converged forwarding state. The stepping fields ([inject],
    [run_until], [run_to_quiescence]) additionally let the fault
    subsystem interleave injections with mid-convergence observation
    instead of always running to quiescence. *)

type t = {
  name : string;
  cold_start : ?max_events:int -> unit -> Engine.run_stats;
      (** Initialize every node and run to quiescence. [max_events]
          overrides the engine's default event budget — oscillation
          probes pass a small bound so a diverging run raises
          {!Engine.Diverged} quickly instead of burning the default
          20M-event budget. *)
  flip : link_id:int -> up:bool -> Engine.run_stats;
      (** Change one link's state and run to quiescence. For a bounded
          flip, use {!t.inject} followed by
          [run_to_quiescence ~max_events]. *)
  inject : (int * bool) list -> unit;
      (** Change several links at the current simulation time {e without}
          running: the endpoint notifications stay queued until the next
          run call. The fault injector's primitive; [inject] then
          {!t.run_to_quiescence} changes several links at once (a
          shared-risk group, a node's cut) and settles once. *)
  run_until : float -> Engine.run_stats;
      (** Partial run to a time horizon (see {!Engine.run_until}). *)
  run_to_quiescence : ?max_events:int -> unit -> Engine.run_stats;
      (** Drain all pending events, optionally under a tighter event
          budget than the engine default. *)
  set_loss : link_id:int -> rate:float -> unit;
      (** Set a link's delivery loss probability. *)
  seed_loss : int -> unit;
      (** Reset the engine's loss draw stream. *)
  pending_events : unit -> int;
      (** Queued events; zero exactly when converged. *)
  now : unit -> float;
      (** Current simulation clock, ms. *)
  last_event_time : unit -> float;
      (** Timestamp of the last event the engine processed — the real
          settling time after a {!run_until} whose horizon overshoots
          quiescence (see {!Engine.last_event_time}). *)
  next_hop : src:int -> dest:int -> int option;
      (** Current forwarding decision of [src] toward [dest] — converged
          or mid-convergence, depending on how the runner was stepped.
          {!Path.follow} over [fun v -> next_hop ~src:v ~dest] is the
          data-plane trajectory, which may differ from the control-plane
          {!t.path} if the protocol has a loop. *)
  path : src:int -> dest:int -> Path.t option;
      (** Full path where the protocol knows it; [None] when
          unreachable. *)
  changed_dests : unit -> int list;
      (** Destinations whose selected route changed {e at any node} since
          the last call (or since cold start), in ascending order; the
          set drains on read. May over-approximate (OSPF reports every
          destination when a link-state change invalidates trees), but a
          destination absent from the feed is guaranteed unchanged at
          every node — the contract the convergence harness and the fault
          observer rely on to skip untouched work. *)
  on_policy_change : int list -> unit;
      (** Notify the protocol that the compiled policy shared with the
          listed nodes was mutated in place (scenario overrides): each
          node re-evaluates selections and export decisions and the
          resulting messages are scheduled at the current simulation
          time, {e without} running — like {!inject}, the events drain
          at the next run call. Protocols without policy hooks (OSPF)
          ignore it. *)
  trace : Obs.Trace.t;
      (** The engine's trace sink ({!Obs.Trace.none} when untraced) —
          harnesses read it back for checking, digesting or export. *)
  metrics : Obs.Metrics.t;
      (** The engine's metrics registry (engine counters, plus whatever
          the protocol registered). *)
}

val sends_to_actions : (int * 'msg) list -> 'msg Engine.action list
(** Lift a protocol transition's [(neighbor, message)] output into engine
    actions, for a net whose protocol returns its sends as a list (the
    Centaur net). *)

val cold_start_states :
  ?max_events:int ->
  'msg Engine.t -> 'st array -> (int -> 'st -> 'msg Engine.action list) ->
  Engine.run_stats
(** Shared cold-start plumbing: mark the engine, let every node emit its
    initial actions ([init node state]), and run to quiescence with the
    initial sends counted in the returned stats. [max_events] bounds the
    run (see {!Engine.run_to_quiescence}). *)

val make :
  name:string ->
  engine:'msg Engine.t ->
  cold_start:(?max_events:int -> unit -> Engine.run_stats) ->
  changed:Dirty.t ->
  ?on_policy_change:(int list -> unit) ->
  next_hop:(src:int -> dest:int -> int option) ->
  path:(src:int -> dest:int -> Path.t option) ->
  unit ->
  t
(** Build the record from an engine plus the protocol-specific pieces:
    every field except [cold_start]/[changed]/[next_hop]/[path] is
    derived uniformly from the engine. [changed] is the protocol's
    route-change tracker (a {!Dirty.t} the protocol marks whenever a
    node's selection for a destination changes); [make] wires it to
    {!t.changed_dests} and clears it after [cold_start].
    [on_policy_change] defaults to a no-op. *)
