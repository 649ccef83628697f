(* Sustained churn: one seeded update stream (link flaps, policy-override
   flips, loss windows) replayed in delta waves through Centaur, BGP and
   OSPF, each on its own freshly cold-started BRITE copy. *)

let nodes = 100
let rate = 1.0  (* arrivals per ms *)
let window = 8.0  (* delta-wave window, ms *)
let min_updates = 1000
let policy_share = 0.15
let loss_share = 0.1
let probe_pairs = 100
let setups = 3

let op =
  "one stream update (link flap, policy-override flip or loss-window edge) \
   ingested by Centaur, BGP and OSPF on a 100-node BRITE graph through 8 ms \
   delta waves"

(* The shortest arrival window (20 ms steps from 500 ms) whose stream
   carries at least [min_updates] updates. *)
let stream topo =
  let rec go duration =
    let s =
      Stream.Update_stream.generate
        ~seed:((Common.graph_cfg.Experiments.Config.seed * 1_000_003) + 11_000)
        ~rate ~duration ~policy_share ~loss_share topo
    in
    if Stream.Update_stream.num_events s >= min_updates then s
    else go (duration +. 20.0)
  in
  go 500.0

(* Sim wait of each update from its arrival to the wave it drains in. *)
let queue_ms s =
  let q = Samples.create () in
  Array.iter
    (fun (e : Stream.Update_stream.event) ->
      Samples.add q ((window *. ceil (e.at /. window)) -. e.at))
    (Stream.Update_stream.events s);
  q

type counts = {
  mutable msgs : int;
  mutable bytes : int;
  mutable events : int;
  mutable waves : int;
  mutable losses : int;
  mutable deliveries : int;
  mutable wave_events : int;
  mutable wave_count : int;
  mutable cancelled : int;
  mutable minor : float;
  mutable major : float;
  mutable rejects : int;
  latencies : Samples.t;
}

let counts () =
  { msgs = 0; bytes = 0; events = 0; waves = 0; losses = 0; deliveries = 0;
    wave_events = 0; wave_count = 0; cancelled = 0; minor = 0.0; major = 0.0;
    rejects = 0; latencies = Samples.create () }

let add c (o : Stream.Replay.outcome) =
  let s = o.stats in
  c.msgs <- c.msgs + s.messages;
  c.bytes <- c.bytes + s.bytes;
  c.events <- c.events + s.events;
  c.waves <- c.waves + s.waves;
  c.losses <- c.losses + s.losses;
  c.deliveries <- c.deliveries + s.deliveries;
  c.wave_events <- c.wave_events + o.events;
  c.wave_count <- c.wave_count + o.waves;
  c.cancelled <- c.cancelled + o.cancelled;
  Samples.add_array c.latencies o.latencies

type pass = {
  mutable wall : float;  (* replay wall seconds, all protocols *)
  mutable failed : int;
  mutable attempted : int;
}

(* Replay the stream through every net, driving the runner [prepare]
   makes of the i-th net's. The nets were cold-started in set-up, outside the timed
   replay, and the engines' loss draws are seeded from the stream, so
   every pass is the same work. *)
let replay_all nets s ~prepare ~on_outcome =
  let p = { wall = 0.0; failed = 0; attempted = 0 } in
  let n_updates = Stream.Update_stream.num_events s in
  List.iteri
    (fun i (n : Common.net) ->
      p.attempted <- p.attempted + n_updates;
      let replay () =
        Stream.Replay.replay ~policy:n.policy ~topo:n.topo ~stream:s
          ~mode:(Stream.Replay.Waves window) (Layers.started (prepare i n.runner))
      in
      match Span.wall replay with
      | exception e when Common.diverged e -> p.failed <- p.failed + n_updates
      | o, dt ->
        p.wall <- p.wall +. dt;
        on_outcome o dt)
    nets;
  p

(* After the final drain a routable sampled pair must be delivered
   under the restored link state. *)
let check nets pairs probe =
  List.fold_left
    (fun (att, bad) (n : Common.net) ->
      let o = Faults.Observer.create n.topo ~pairs ~sample_every:1.0 in
      Faults.Observer.refresh_truth o;
      let b = Span.time probe (fun () -> Common.probe_failures o n.runner pairs) in
      (att + List.length pairs, bad + b))
    (0, 0) nets

let run ~seed ~seconds ~traced =
  let cfg = Common.graph_cfg in
  let topo0 = Experiments.Inputs.brite_sized cfg ~n:nodes in
  let s = stream topo0 in
  let pairs =
    Experiments.Inputs.sample_pairs (Common.seed_cfg seed) topo0 ~count:probe_pairs
  in
  let n_updates = Stream.Update_stream.num_events s in
  let setup_times = Samples.create () in
  let timed_setup makers =
    Gc.compact ();
    let nets, dt = Span.wall (fun () -> Common.setup cfg ~nodes makers) in
    Samples.add setup_times dt;
    nets
  in
  let brite = Span.create () in
  let protos, tmakers = Common.traced_makers () in
  let steps = List.map (fun _ -> Samples.create ()) Common.untraced_makers in
  let c = counts () in
  let probe = Span.create () and probes = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let untraced_wall = ref 0.0 and traced_wall = ref 0.0 in
  let replay_self = ref 0.0 in
  let passes = ref 0 in
  (* Extra set-ups up front so set-up time is a median of several. *)
  if not traced then
    for _ = 2 to setups do ignore (timed_setup Common.untraced_makers) done;
  let t_start = Span.now () in
  while !passes = 0 || Span.now () -. t_start < float_of_int seconds do
    let counted = !passes = 0 in
    let nets = timed_setup Common.untraced_makers in
    let m0, j0 = Common.words () in
    let p =
      replay_all nets s
        ~prepare:(fun i -> Layers.time_steps (List.nth steps i))
        ~on_outcome:(fun o _ -> if counted && not traced then add c o)
    in
    let m1, j1 = Common.words () in
    if counted && not traced then begin
      c.minor <- m1 -. m0;
      c.major <- j1 -. j0;
      c.rejects <- Common.rejects nets
    end;
    untraced_wall := !untraced_wall +. p.wall;
    attempted := !attempted + p.attempted;
    failed := !failed + p.failed;
    let checked =
      if not traced then nets
      else begin
        let tnets = Common.setup ~brite cfg ~nodes tmakers in
        let tp =
          replay_all tnets s ~prepare:(fun _ r -> r) ~on_outcome:(fun o dt ->
              replay_self := !replay_self +. dt;
              if counted then add c o)
        in
        traced_wall := !traced_wall +. tp.wall;
        attempted := !attempted + tp.attempted;
        failed := !failed + tp.failed;
        if counted then c.rejects <- Common.rejects tnets;
        tnets
      end
    in
    let att, bad = check checked pairs probe in
    attempted := !attempted + att;
    probes := !probes + att;
    failed := !failed + bad;
    incr passes
  done;
  let timed_ops = !passes * n_updates in
  let ops = float_of_int timed_ops and pops = float_of_int n_updates in
  let m = Report.metric in
  let per_op name x = m name ~over:"timed op" ~n:timed_ops (Report.ratio x ops) in
  let per_pass name x = m name ~over:"counted op" ~n:n_updates (x /. pops) in
  let sim_ms p =
    m (Printf.sprintf "sim_ms_p%.0f" p) ~over:"update enqueue->stable, all protocols"
      ~n:(Samples.length c.latencies) (Samples.percentile c.latencies p)
  in
  (* One sample per delta wave: the protocols' run calls for the same
     wave, summed, as a flip op sums the three networks. Every replay of
     the stream makes the same run calls in the same order. *)
  let wave_ms =
    let w = Samples.create () in
    let n = List.fold_left (fun a s -> min a (Samples.length s)) max_int steps in
    for i = 0 to n - 1 do
      Samples.add w (List.fold_left (fun a s -> a +. Samples.get s i) 0.0 steps)
    done;
    w
  in
  let e2e () =
    [ m "setup_s" ~over:"set-up (median)" ~n:(Samples.length setup_times)
        (Samples.median setup_times);
      m "ops_per_s" ~over:"timed op" ~n:timed_ops (Report.ratio ops !untraced_wall);
      m "op_ms_p50" ~over:"delta wave, all protocols" ~n:(Samples.length wave_ms)
        (Samples.percentile wave_ms 50.0);
      m "op_ms_p90" ~over:"delta wave, all protocols" ~n:(Samples.length wave_ms)
        (Samples.percentile wave_ms 90.0);
      per_pass "minor_words_per_op" c.minor;
      per_pass "major_words_per_op" c.major;
      m "peak_rss_mb" ~over:"process" ~n:1 (Common.peak_rss_mb ());
      per_pass "msgs_per_op" (float_of_int c.msgs);
      per_pass "bytes_per_op" (float_of_int c.bytes) ]
  in
  let layers () =
    let sum f = List.fold_left (fun a (_, (l : Layers.proto)) -> f a l) in
    (* Runner time inside the replays (the checks call next_hop outside). *)
    let runner_secs =
      sum (fun a l -> a +. Span.sum [ l.run; l.inject; l.set_loss; l.on_policy_change ])
        0.0 protos
    in
    let run_calls = sum (fun a l -> a +. l.run.Span.calls) 0.0 protos in
    let pending_max = sum (fun a l -> max a l.pending_max) 0 protos in
    Common.complete
      (Common.proto_metrics protos ~cold_starts:!passes ~per_op:(fun x -> x /. ops)
         ~over:"timed op" ~n:timed_ops
      @ [ m "topogen.brite_s" ~over:"generated graph" ~n:(int_of_float brite.Span.calls)
            (Report.ratio brite.Span.secs brite.Span.calls);
          per_pass "sim.engine.events" (float_of_int c.events);
          per_pass "sim.engine.messages" (float_of_int c.msgs);
          per_pass "sim.engine.waves" (float_of_int c.waves);
          m "sim.engine.pending_max" ~over:"run call" ~n:(int_of_float run_calls)
            (float_of_int pending_max);
          per_pass "sim.engine.losses" (float_of_int c.losses);
          m "sim.engine.loss_ratio" ~over:"message delivered or lost"
            ~n:(c.losses + c.deliveries)
            (Report.ratio (float_of_int c.losses) (float_of_int (c.losses + c.deliveries)));
          per_op "faults.observer.probe_s" probe.Span.secs;
          per_op "faults.observer.probes" (float_of_int !probes);
          per_op "stream.replay.self_s" (!replay_self -. runner_secs);
          m "stream.replay.queue_ms_p50" ~over:"update" ~n:n_updates
            (Samples.median (queue_ms s));
          per_pass "sim.delta_wave.waves" (float_of_int c.wave_count);
          per_pass "sim.delta_wave.events" (float_of_int c.wave_events);
          per_pass "sim.delta_wave.cancelled" (float_of_int c.cancelled);
          m "sim.delta_wave.cancel_ratio" ~over:"wave event" ~n:c.wave_events
            (Report.ratio (float_of_int c.cancelled) (float_of_int c.wave_events));
          m "policy.rejects" ~over:"set-up and counted pass" ~n:n_updates
            (float_of_int c.rejects);
          m "obs.trace.overhead_ratio" ~over:"timed op" ~n:timed_ops
            (Report.ratio !untraced_wall !traced_wall) ])
  in
  let metrics = if traced then layers () else e2e () in
  { Report.workload = "churn";
    seed;
    traced;
    seconds;
    op;
    timed_ops;
    counted_ops = n_updates;
    attempted = !attempted;
    failed = !failed;
    checks = [];
    metrics =
      metrics
      @ [ sim_ms 50.0; sim_ms 90.0;
          m "fail_rate" ~over:"update or check attempted" ~n:!attempted
            (Report.ratio (float_of_int !failed) (float_of_int !attempted)) ] }
