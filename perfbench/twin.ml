(* A benchmark-side wiring of [Centaur.Node] onto [Sim.Engine] and
   [Sim.Runner.make] that mirrors [Protocols.Centaur_net.network] for
   the default policy (no overrides, no corruption, no trace), with
   timers around the node's transitions and the wire-byte pricer. The
   flip workload checks that it reproduces the library wiring's run
   statistics and next hops exactly before it reports the node split. *)

type node = {
  start : Span.t;
  absorb : Span.t;
  absorb_adjacency : Span.t;
  recompute : Span.t;
  wire_bytes : Span.t;
  mutable drained : int;  (** destinations drained by recomputes *)
  mutable changed : int;  (** selected routes changed by recomputes *)
  mutable pending_max : int;  (** engine backlog at a recompute *)
}

let node () =
  { start = Span.create ();
    absorb = Span.create ();
    absorb_adjacency = Span.create ();
    recompute = Span.create ();
    wire_bytes = Span.create ();
    drained = 0;
    changed = 0;
    pending_max = 0 }

let handler_spans l = [ l.absorb; l.absorb_adjacency; l.recompute; l.wire_bytes ]

let reset l =
  List.iter Span.reset (l.start :: handler_spans l);
  l.drained <- 0;
  l.changed <- 0;
  l.pending_max <- 0

let network l ~policy topo =
  let n = Topology.num_nodes topo in
  let changed = Dirty.create ~size:n () in
  let states =
    Array.init n (fun id ->
        Centaur.Node.create
          ~on_change:(fun dest ->
            Dirty.mark changed dest;
            l.changed <- l.changed + 1)
          ~policy topo ~id)
  in
  let pending = ref (fun () -> 0) in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src:_ ann ->
          states.(node) <-
            Span.time l.absorb (fun () -> Centaur.Node.absorb states.(node) ann);
          []);
      on_link_change =
        (fun ~now:_ ~node ~link_id:_ ->
          states.(node) <-
            Span.time l.absorb_adjacency (fun () ->
                Centaur.Node.absorb_adjacency states.(node));
          []);
      on_timer = Sim.Engine.no_timers;
      on_batch_end =
        (fun ~now:_ ~node ->
          l.drained <- l.drained + Centaur.Node.dirty_size states.(node);
          l.pending_max <- max l.pending_max (!pending ());
          let st, sends =
            Span.time l.recompute (fun () -> Centaur.Node.recompute states.(node))
          in
          states.(node) <- st;
          Sim.Runner.sends_to_actions sends) }
  in
  (* Centaur_net's default false-positive rate. *)
  let price = Centaur.Announce.wire_bytes ~plist_fp_rate:0.01 in
  let engine =
    Sim.Engine.create topo ~units:Centaur.Announce.units
      ~bytes:(fun ann -> Span.time l.wire_bytes (fun () -> price ann))
      ~handlers
  in
  pending := (fun () -> Sim.Engine.pending_events engine);
  let cold_start ?max_events () =
    Sim.Runner.cold_start_states ?max_events engine states (fun i _ ->
        let st, sends = Span.time l.start (fun () -> Centaur.Node.start states.(i)) in
        states.(i) <- st;
        Sim.Runner.sends_to_actions sends)
  in
  let next_hop ~src ~dest = Centaur.Node.next_hop states.(src) ~dest in
  let path ~src ~dest = Centaur.Node.selected_path states.(src) ~dest in
  Sim.Runner.make ~name:"centaur" ~engine ~cold_start ~changed ~next_hop ~path ()

(* The run statistics the twin must reproduce; [duration] is left out
   because it follows from the same events. *)
let same_stats (a : Sim.Engine.run_stats) (b : Sim.Engine.run_stats) =
  a.messages = b.messages && a.units = b.units && a.bytes = b.bytes
  && a.events = b.events && a.waves = b.waves
