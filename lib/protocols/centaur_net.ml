(* Delta-first wiring: announcements and adjacency notifications are
   absorbed as they arrive (P-graph deltas applied, affected destinations
   marked on the node's dirty set) and one recomputation per
   same-timestamp burst re-selects and flushes at the engine's batch
   end. *)

module Trace = Obs.Trace

(* The misconfigured-Permission-List fault: a node under a corruption
   override damages its *outgoing* announcements — every odd destination
   is dropped from every announced Permission List and from the
   destination marks. (In equilibrium a node's selected routes form a
   tree, so its announced links mostly carry the implicit
   everything-permitted list; a misconfiguration that denies a
   destination therefore shows up as the destination mark going
   missing.) Downstream nodes can no longer derive the filtered
   destinations through this node and either reroute or blackhole. The
   node's own state stays intact — recovery is a full re-announce once
   the override clears. *)
let corrupt_keeps dest = dest land 1 = 0

let corrupt_plist pl = Centaur.Permission_list.filter_dests pl corrupt_keeps

let corrupt_announce ann =
  let delta = ann.Centaur.Announce.delta in
  Centaur.Announce.make ~sender:ann.Centaur.Announce.sender
    { delta with
      Centaur.Pgraph.add_links =
        List.map
          (fun (p, c, pl) -> (p, c, corrupt_plist pl))
          delta.Centaur.Pgraph.add_links;
      add_dests = List.filter corrupt_keeps delta.Centaur.Pgraph.add_dests;
      remove_dests =
        List.sort_uniq Int.compare
          (delta.Centaur.Pgraph.remove_dests
          @ List.filter
              (fun d -> not (corrupt_keeps d))
              delta.Centaur.Pgraph.add_dests) }

let network ?(trace = Trace.none) ?policy topo =
  let n = Topology.num_nodes topo in
  let policy = match policy with Some p -> p | None -> Policy.default () in
  let changed = Dirty.create ~size:n () in
  let tr = trace in
  (* The on_change tap fires mid-recompute, after the node has installed
     its new selection, so it can read the fresh state back through this
     cell (the array itself is built around the callbacks). *)
  let states_cell = ref [||] in
  let rib_changes = Array.make n 0 in
  let states =
    Array.init n (fun id ->
        Centaur.Node.create
          ~on_change:(fun dest ->
            Dirty.mark changed dest;
            rib_changes.(id) <- rib_changes.(id) + 1;
            if Trace.enabled tr then
              let withdrawn =
                Centaur.Node.selected_path !states_cell.(id) ~dest = None
              in
              Trace.emit tr (Trace.Rib_change { node = id; dest; withdrawn }))
          ~policy topo ~id)
  in
  states_cell := states;
  let post_sends node sends =
    if Policy.corrupted policy ~node then
      List.map (fun (dst, ann) -> (dst, corrupt_announce ann)) sends
    else sends
  in
  (* The node marks its internal dirty set during absorb; mirror the
     growth onto the trace as one bulk mark so the checker can pair every
     recompute span with its absorb. *)
  let note_absorb node ~before =
    if Trace.enabled tr && Centaur.Node.dirty_size states.(node) > before
    then Trace.emit tr (Trace.Mark_dirty { node; dest = -1 })
  in
  let metrics = Obs.Metrics.create () in
  let hist =
    Obs.Metrics.histogram metrics
      ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
      "centaur.recompute_dirty"
  in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src:_ ann ->
          let before = Centaur.Node.dirty_size states.(node) in
          states.(node) <- Centaur.Node.absorb states.(node) ann;
          note_absorb node ~before;
          []);
      Sim.Engine.on_link_change =
        (fun ~now:_ ~node ~link_id:_ ->
          let before = Centaur.Node.dirty_size states.(node) in
          states.(node) <- Centaur.Node.absorb_adjacency states.(node);
          note_absorb node ~before;
          []);
      Sim.Engine.on_timer = Sim.Engine.no_timers;
      Sim.Engine.on_batch_end =
        (fun ~now:_ ~node ->
          let dirty = Centaur.Node.dirty_size states.(node) in
          if dirty > 0 then
            Obs.Metrics.observe hist (float_of_int dirty);
          let before = rib_changes.(node) in
          let st, sends = Centaur.Node.recompute states.(node) in
          states.(node) <- st;
          if Trace.enabled tr then
            Trace.emit tr
              (Trace.Recompute
                 { node; dirty; changed = rib_changes.(node) - before });
          Sim.Runner.sends_to_actions (post_sends node sends)) }
  in
  let engine =
    Sim.Engine.create ~trace ~metrics topo ~units:Centaur.Announce.units
      ~bytes:Centaur.Announce.wire_bytes
      ~handlers
  in
  let cold_start ?max_events () =
    Sim.Runner.cold_start_states ?max_events engine states (fun i _ ->
        let st, sends = Centaur.Node.start states.(i) in
        states.(i) <- st;
        Sim.Runner.sends_to_actions (post_sends i sends))
  in
  (* Policy poke: each listed node re-runs selection and export decisions
     against the mutated policy. A node whose corruption override just
     flipped (either way) must re-announce its full wire state — on start
     so the damage reaches receivers that already hold correct copies, on
     end so they recover. *)
  let was_corrupt = Array.make n false in
  let on_policy_change nodes =
    List.iter
      (fun node ->
        let now_corrupt = Policy.corrupted policy ~node in
        let resend = was_corrupt.(node) <> now_corrupt in
        was_corrupt.(node) <- now_corrupt;
        let st, sends = Centaur.Node.refresh_policy ~resend states.(node) in
        states.(node) <- st;
        Sim.Engine.perform engine ~node
          (Sim.Runner.sends_to_actions (post_sends node sends)))
      nodes
  in
  let next_hop ~src ~dest = Centaur.Node.next_hop states.(src) ~dest in
  let path ~src ~dest = Centaur.Node.selected_path states.(src) ~dest in
  Sim.Runner.make ~name:"centaur" ~engine ~cold_start ~changed
    ~on_policy_change ~next_hop ~path ()
