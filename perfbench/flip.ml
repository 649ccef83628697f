(* The paper's Fig. 6/7 round: sampled link flips on a BRITE graph, each
   applied to Centaur, BGP and OSPF (every protocol on its own copy) and
   run to quiescence. *)

let nodes = 200
let flip_links = 100  (* a pass flips each down and back: 200 ops *)
let probe_pairs = 60
let setups = 3

(* The timed phase stops after two passes even when --seconds would allow
   more: with seed 9's probe pairs the libraries abort in the third pass
   (a runaway allocation of about 1 TB during a minor collection). *)
let max_passes = 2

let op =
  "one sampled link flip (down, or its restore) applied to Centaur, BGP and \
   OSPF on a 200-node BRITE graph, each run to quiescence"

(* Counts over the first pass, the same work in every run. *)
type counts = {
  mutable msgs : int;
  mutable bytes : int;
  mutable events : int;
  mutable waves : int;
  mutable losses : int;
  mutable deliveries : int;
  mutable minor : float;
  mutable major : float;
  sim_ms : Samples.t;
}

let counts () =
  { msgs = 0; bytes = 0; events = 0; waves = 0; losses = 0; deliveries = 0;
    minor = 0.0; major = 0.0; sim_ms = Samples.create () }

let add_stats c (s : Sim.Engine.run_stats) =
  c.msgs <- c.msgs + s.messages;
  c.bytes <- c.bytes + s.bytes;
  c.events <- c.events + s.events;
  c.waves <- c.waves + s.waves;
  c.losses <- c.losses + s.losses;
  c.deliveries <- c.deliveries + s.deliveries;
  Samples.add c.sim_ms s.duration

(* One op on a set of networks: per-protocol stats, wall seconds, minor
   and major words. *)
let flip_all nets ~link_id ~up =
  let m0, j0 = Common.words () in
  let t0 = Span.now () in
  let stats =
    List.map (fun (n : Common.net) -> n.runner.Sim.Runner.flip ~link_id ~up) nets
  in
  let dt = Span.now () -. t0 in
  let m1, j1 = Common.words () in
  (stats, dt, m1 -. m0, j1 -. j0)

let observers nets pairs =
  List.map
    (fun (n : Common.net) ->
      let o = Faults.Observer.create n.topo ~pairs ~sample_every:1.0 in
      Faults.Observer.refresh_truth o;
      (n, o))
    nets

(* The twin's node split over the first pass. *)
type split = {
  absorb_calls : float;
  recompute_calls : float;
  drained : int;
  changed : int;
  absorb_words : float;
  recompute_words : float;
  self_words : float;  (* Centaur flip words outside the handlers *)
}

let run ~seed ~seconds ~traced =
  let cfg = Common.graph_cfg in
  let topo0 = Experiments.Inputs.brite_sized cfg ~n:nodes in
  (* The flipped links and their order are fixed: a flip's cost depends on
     what the flips before it left in the nodes' caches, so another order
     is other work. The seed draws the probed pairs. *)
  let links =
    Array.of_list (Experiments.Inputs.sample_links cfg topo0 ~count:flip_links)
  in
  let pairs =
    Experiments.Inputs.sample_pairs (Common.seed_cfg seed) topo0 ~count:probe_pairs
  in
  let pass_ops = 2 * Array.length links in
  let nets, setup_times =
    Common.repeat_setup (if traced then 1 else setups) (fun () ->
        Common.setup cfg ~nodes Common.untraced_makers)
  in
  (* The traced set: the Centaur twin, every runner wrapped. *)
  let brite = Span.create () in
  let node = Twin.node () in
  let twin_raw = ref None in
  let protos, makers =
    Common.traced_makers
      ~centaur:(fun ~policy topo ->
        let r = Twin.network node ~policy topo in
        twin_raw := Some r;
        r)
      ()
  in
  let tnets = if traced then Common.setup ~brite cfg ~nodes makers else [] in
  let start_secs = node.Twin.start.Span.secs
  and start_calls = node.Twin.start.Span.calls in
  Twin.reset node;
  let centaur_flip = (List.assoc "centaur_net" protos).Layers.flip in
  let obs = observers (if traced then tnets else nets) pairs in
  let c = counts () in
  let op_ms = Samples.create () in
  let untraced_wall = ref 0.0 and traced_wall = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let probe = Span.create () and probes = ref 0 in
  let fidelity = ref true in
  let split = ref None in
  let snapshot () =
    if Option.is_none !split then
      split :=
        Some
          { absorb_calls =
              node.Twin.absorb.Span.calls +. node.Twin.absorb_adjacency.Span.calls;
            recompute_calls = node.Twin.recompute.Span.calls;
            drained = node.Twin.drained;
            changed = node.Twin.changed;
            absorb_words =
              node.Twin.absorb.Span.words +. node.Twin.absorb_adjacency.Span.words;
            recompute_words = node.Twin.recompute.Span.words;
            self_words =
              centaur_flip.Span.words -. Span.sum_words (Twin.handler_spans node) }
  in
  Gc.compact ();
  let t_start = Span.now () in
  let i = ref 0 and stop = ref false in
  (* Whole passes only, so every run times the same mix of flips. *)
  while
    (not !stop)
    && (!i = 0 || !i mod pass_ops <> 0
       || (!i < max_passes * pass_ops && Span.now () -. t_start < float_of_int seconds))
  do
    let link_id = links.(!i / 2 mod Array.length links)
    and up = !i land 1 = 1 in
    let counted = !i < pass_ops in
    incr attempted;
    (match flip_all nets ~link_id ~up with
    | exception e when Common.diverged e ->
      incr failed;
      stop := true
    | stats, dt, minor, major -> (
      untraced_wall := !untraced_wall +. dt;
      Samples.add op_ms (dt *. 1e3);
      if counted && not traced then begin
        List.iter (add_stats c) stats;
        c.minor <- c.minor +. minor;
        c.major <- c.major +. major
      end;
      if traced then
        match flip_all tnets ~link_id ~up with
        | exception e when Common.diverged e ->
          incr failed;
          stop := true
        | tstats, tdt, _, _ ->
          traced_wall := !traced_wall +. tdt;
          if counted then List.iter (add_stats c) tstats;
          if not (Twin.same_stats (List.hd stats) (List.hd tstats)) then
            fidelity := false));
    (* After each restore every protocol must deliver every routable
       sampled pair again. *)
    if up && not !stop then
      List.iter
        (fun ((n : Common.net), o) ->
          attempted := !attempted + List.length pairs;
          probes := !probes + List.length pairs;
          failed :=
            !failed
            + Span.time probe (fun () -> Common.probe_failures o n.runner pairs))
        obs;
    incr i;
    if !i = pass_ops then snapshot ()
  done;
  snapshot ();
  let timed_ops = !i in
  let ops = float_of_int timed_ops and pops = float_of_int pass_ops in
  let m = Report.metric in
  let per_op name x = m name ~over:"timed op" ~n:timed_ops (Report.ratio x ops) in
  let per_pass name x = m name ~over:"counted op" ~n:pass_ops (x /. pops) in
  let sim_ms p =
    m (Printf.sprintf "sim_ms_p%.0f" p) ~over:"protocol run"
      ~n:(Samples.length c.sim_ms) (Samples.percentile c.sim_ms p)
  in
  let e2e () =
    [ m "setup_s" ~over:"set-up (median)" ~n:(Samples.length setup_times)
        (Samples.median setup_times);
      m "ops_per_s" ~over:"timed op" ~n:timed_ops (Report.ratio ops !untraced_wall);
      m "op_ms_p50" ~over:"timed op" ~n:timed_ops (Samples.percentile op_ms 50.0);
      m "op_ms_p90" ~over:"timed op" ~n:timed_ops (Samples.percentile op_ms 90.0);
      per_pass "minor_words_per_op" c.minor;
      per_pass "major_words_per_op" c.major;
      m "peak_rss_mb" ~over:"process" ~n:1 (Common.peak_rss_mb ());
      per_pass "msgs_per_op" (float_of_int c.msgs);
      per_pass "bytes_per_op" (float_of_int c.bytes) ]
  in
  let layers () =
    (* The twin must end in the library wiring's forwarding state. *)
    let real = (List.hd nets).Common.runner and twin = Option.get !twin_raw in
    let n = Topology.num_nodes topo0 in
    for src = 0 to n - 1 do
      for dest = 0 to n - 1 do
        if real.Sim.Runner.next_hop ~src ~dest <> twin.Sim.Runner.next_hop ~src ~dest
        then fidelity := false
      done
    done;
    let s = Option.get !split in
    let node_split =
      [ m "core.node.start_s" ~over:"node start" ~n:(int_of_float start_calls)
          (Report.ratio start_secs start_calls);
        per_op "core.node.absorb_s" node.Twin.absorb.Span.secs;
        per_op "core.node.absorb_adjacency_s" node.Twin.absorb_adjacency.Span.secs;
        per_op "core.node.recompute_s" node.Twin.recompute.Span.secs;
        per_pass "core.node.absorb_calls" s.absorb_calls;
        per_pass "core.node.recompute_calls" s.recompute_calls;
        per_pass "core.node.recompute_dirty" (float_of_int s.drained);
        m "core.node.recompute_yield" ~over:"destination drained" ~n:s.drained
          (Report.ratio (float_of_int s.changed) (float_of_int s.drained));
        per_pass "core.node.absorb_words" s.absorb_words;
        per_pass "core.node.recompute_words" s.recompute_words;
        per_op "core.announce.wire_bytes_s" node.Twin.wire_bytes.Span.secs;
        per_op "sim.engine.self_s"
          (centaur_flip.Span.secs -. Span.sum (Twin.handler_spans node));
        per_pass "sim.engine.self_words" s.self_words;
        m "sim.engine.pending_max" ~over:"Centaur recompute"
          ~n:(int_of_float s.recompute_calls) (float_of_int node.Twin.pending_max) ]
    in
    (* A split of some other wiring would mislead: withhold it. *)
    let node_split =
      if !fidelity then node_split
      else
        List.map
          (fun x ->
            { x with Report.value = 0.0; over = "withheld: twin differs from Centaur_net" })
          node_split
    in
    Common.complete
      (Common.proto_metrics protos ~cold_starts:1 ~per_op:(fun x -> x /. ops)
         ~over:"timed op" ~n:timed_ops
      @ [ m "topogen.brite_s" ~over:"generated graph" ~n:(int_of_float brite.Span.calls)
            (Report.ratio brite.Span.secs brite.Span.calls) ]
      @ node_split
      @ [ per_pass "sim.engine.events" (float_of_int c.events);
          per_pass "sim.engine.messages" (float_of_int c.msgs);
          per_pass "sim.engine.waves" (float_of_int c.waves);
          per_pass "sim.engine.losses" (float_of_int c.losses);
          m "sim.engine.loss_ratio" ~over:"message delivered or lost"
            ~n:(c.losses + c.deliveries)
            (Report.ratio (float_of_int c.losses) (float_of_int (c.losses + c.deliveries)));
          per_op "faults.observer.probe_s" probe.Span.secs;
          per_op "faults.observer.probes" (float_of_int !probes);
          m "policy.rejects" ~over:"set-up and timed phase" ~n:timed_ops
            (float_of_int (Common.rejects tnets));
          m "obs.trace.overhead_ratio" ~over:"timed op" ~n:timed_ops
            (Report.ratio !untraced_wall !traced_wall) ])
  in
  let metrics = if traced then layers () else e2e () in
  { Report.workload = "flip";
    seed;
    traced;
    seconds;
    op;
    timed_ops;
    counted_ops = pass_ops;
    attempted = !attempted;
    failed = !failed;
    checks =
      (if traced then
         [ ("twin_fidelity", if !fidelity then "ok" else "FAILED: node split withheld") ]
       else []);
    metrics =
      metrics
      @ [ sim_ms 50.0; sim_ms 90.0;
          m "fail_rate" ~over:"op or check attempted" ~n:!attempted
            (Report.ratio (float_of_int !failed) (float_of_int !attempted)) ] }
