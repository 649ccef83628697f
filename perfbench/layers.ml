(* Per-protocol timers around the fields of [Sim.Runner.t]. The runner is
   a record of closures, so wrapping its fields times every call a
   harness makes into the protocol without touching the library. *)

type proto = {
  cold_start : Span.t;
  flip : Span.t;
  run : Span.t;  (** [run_until] and [run_to_quiescence] *)
  inject : Span.t;
  set_loss : Span.t;
  on_policy_change : Span.t;
  next_hop : Span.t;
  mutable pending_max : int;
      (** largest event backlog seen when a run call starts *)
}

let proto () =
  { cold_start = Span.create ();
    flip = Span.create ();
    run = Span.create ();
    inject = Span.create ();
    set_loss = Span.create ();
    on_policy_change = Span.create ();
    next_hop = Span.create ();
    pending_max = 0 }

let wrap p (r : Sim.Runner.t) =
  let note_pending () =
    p.pending_max <- max p.pending_max (r.Sim.Runner.pending_events ())
  in
  { r with
    Sim.Runner.cold_start =
      (fun ?max_events () ->
        Span.time p.cold_start (fun () -> r.Sim.Runner.cold_start ?max_events ()));
    flip =
      (fun ~link_id ~up ->
        Span.time p.flip (fun () -> r.Sim.Runner.flip ~link_id ~up));
    inject = (fun changes -> Span.time p.inject (fun () -> r.Sim.Runner.inject changes));
    run_until =
      (fun horizon ->
        note_pending ();
        Span.time p.run (fun () -> r.Sim.Runner.run_until horizon));
    run_to_quiescence =
      (fun ?max_events () ->
        note_pending ();
        Span.time p.run (fun () -> r.Sim.Runner.run_to_quiescence ?max_events ()));
    set_loss =
      (fun ~link_id ~rate ->
        Span.time p.set_loss (fun () -> r.Sim.Runner.set_loss ~link_id ~rate));
    on_policy_change =
      (fun nodes ->
        Span.time p.on_policy_change (fun () -> r.Sim.Runner.on_policy_change nodes));
    next_hop =
      (fun ~src ~dest ->
        Span.time p.next_hop (fun () -> r.Sim.Runner.next_hop ~src ~dest)) }

let zero_stats =
  { Sim.Engine.duration = 0.0;
    messages = 0;
    units = 0;
    bytes = 0;
    deliveries = 0;
    losses = 0;
    events = 0;
    waves = 0 }

(* A runner already cold-started during set-up: [Stream.Replay.replay]
   cold-starts the runner it is given, and this keeps that out of the
   timed replay. *)
let started (r : Sim.Runner.t) =
  { r with Sim.Runner.cold_start = (fun ?max_events:_ () -> zero_stats) }

(* Wall time of every run call, one sample per call: the delta-wave
   steps of a replay. *)
let time_steps (samples : Samples.t) (r : Sim.Runner.t) =
  let step f =
    let t0 = Span.now () in
    let s = f () in
    Samples.add samples ((Span.now () -. t0) *. 1e3);
    s
  in
  { r with
    Sim.Runner.run_until = (fun h -> step (fun () -> r.Sim.Runner.run_until h));
    run_to_quiescence =
      (fun ?max_events () ->
        step (fun () -> r.Sim.Runner.run_to_quiescence ?max_events ())) }
