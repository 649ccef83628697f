(* Wave-batched streaming obligations. The core pin: replaying any
   seeded update stream in batched delta waves leaves every protocol in
   exactly the state event-at-a-time replay of the same stream reaches —
   coalescing flaps, deduplicating dirty work and grouping MRAI
   evaluations must never change where packets go, only what the
   convergence costs. Plus the coalescing edge cases (same-timestamp
   up/down, SRLG cuts across a window boundary, a policy flip sharing a
   wave with a link flip on the affected neighbor) and the composition
   guarantee that splitting the inter-wave stepping into finer
   [run_until] calls changes nothing. *)

open Helpers
module Delta_wave = Faults.Delta_wave
module Scenario = Faults.Scenario

let nodes = 12

let window = 8.0

let same_forwarding n (a : Sim.Runner.t) (b : Sim.Runner.t) =
  let ok = ref true in
  for src = 0 to n - 1 do
    for dest = 0 to n - 1 do
      if src <> dest then begin
        if a.Sim.Runner.next_hop ~src ~dest <> b.Sim.Runner.next_hop ~src ~dest
        then ok := false;
        if
          not
            (Option.equal Path.equal
               (a.Sim.Runner.path ~src ~dest)
               (b.Sim.Runner.path ~src ~dest))
        then ok := false
      end
    done
  done;
  !ok

let forwarding_snapshot n (r : Sim.Runner.t) =
  Array.init n (fun src ->
      Array.init n (fun dest ->
          if src = dest then None else r.Sim.Runner.next_hop ~src ~dest))

(* --- the QCheck pin: waves == event-at-a-time, all three protocols --- *)

let equivalent_at ~policy_share make_runner seed =
  let run mode =
    let topo = random_brite ~seed ~n:nodes ~m:2 in
    let pol = Policy.default () in
    let runner = make_runner ~policy:pol topo in
    let stream =
      (* Loss-free: the loss draw order differs between modes, so
         probabilistic loss would (correctly) break state identity. *)
      Stream.Update_stream.generate ~seed:(seed + 3) ~rate:0.3
        ~duration:50.0 ~flap_hold:10.0 ~policy_share topo
    in
    ignore (Stream.Replay.replay ~policy:pol ~topo ~stream ~mode runner);
    runner
  in
  let a = run Stream.Replay.Event_at_a_time in
  let b = run (Stream.Replay.Waves window) in
  same_forwarding nodes a b

let equivalence ~name ~policy_share make_runner =
  QCheck.Test.make
    ~name:(name ^ ": wave-batched == event-at-a-time")
    ~count:(qcheck_count 10)
    QCheck.(int_bound 10_000)
    (equivalent_at ~policy_share make_runner)

(* Event-at-a-time replay drains one-event waves. The generator only
   schedules a change on a free resource, so no generated change is a
   no-op: no one-event wave may cancel, and each event is its own wave —
   exactly the injections of applying every event directly. *)
let event_waves_never_cancel =
  QCheck.Test.make ~name:"event-at-a-time: one-event waves never cancel"
    ~count:(qcheck_count 10)
    QCheck.(
      quad (int_bound 10_000) (float_range 0.05 1.0) (float_range 0.0 0.5)
        (float_range 0.0 0.5))
    (fun (seed, rate, policy_share, loss_share) ->
      let topo = random_brite ~seed ~n:nodes ~m:2 in
      let policy = Policy.default () in
      let runner = Protocols.Centaur_net.network ~policy topo in
      let stream =
        Stream.Update_stream.generate ~seed:(seed + 5) ~rate ~duration:50.0
          ~flap_hold:10.0 ~policy_share ~loss_share topo
      in
      let o =
        Stream.Replay.replay ~policy ~topo ~stream
          ~mode:Stream.Replay.Event_at_a_time runner
      in
      o.Stream.Replay.cancelled = 0
      && o.Stream.Replay.waves = o.Stream.Replay.events)

(* A runner whose only state is its clock: it settles at once, so each
   replay latency is the event's wave time minus its arrival. *)
let clock_only_runner () =
  let clock = ref 0.0 and zero = Sim.Engine.zero_stats in
  { Sim.Runner.name = "clock";
    cold_start = (fun ?max_events:_ () -> zero);
    flip = (fun ~link_id:_ ~up:_ -> zero);
    inject = ignore;
    run_until =
      (fun horizon ->
        clock := Float.max !clock horizon;
        zero);
    run_to_quiescence = (fun ?max_events:_ () -> zero);
    set_loss = (fun ~link_id:_ ~rate:_ -> ());
    seed_loss = ignore;
    pending_events = (fun () -> 0);
    now = (fun () -> !clock);
    last_event_time = (fun () -> 0.0);
    next_hop = (fun ~src:_ ~dest:_ -> None);
    path = (fun ~src:_ ~dest:_ -> None);
    changed_dests = (fun () -> []);
    on_policy_change = ignore;
    trace = Obs.Trace.none;
    metrics = Obs.Metrics.create () }

(* Any finite positive window, from 10^-300 to 10^300 ms, puts each event
   in a wave no earlier than the event: past 2^53 windows per event the
   rounded k·w falls on either side of the arrival. *)
let waves_never_precede_events =
  let window =
    QCheck.(
      oneof
        [ float_range 1e-3 100.0;
          map (fun e -> 10.0 ** e) (float_range (-300.0) 300.0) ])
  in
  QCheck.Test.make ~name:"finite windows: no event waits in an earlier wave"
    ~count:(qcheck_count 100)
    QCheck.(pair (int_bound 10_000) window)
    (fun (seed, window) ->
      let topo = random_brite ~seed ~n:nodes ~m:2 in
      let stream =
        Stream.Update_stream.generate ~seed ~rate:0.5 ~duration:50.0
          ~policy_share:0.15 ~loss_share:0.1 topo
      in
      let o =
        Stream.Replay.replay ~policy:(Policy.default ()) ~topo ~stream
          ~mode:(Stream.Replay.Waves window) (clock_only_runner ())
      in
      Array.for_all (fun lat -> lat >= 0.0) o.Stream.Replay.latencies)

let centaur ~policy topo = Protocols.Centaur_net.network ~policy topo

let bgp ~policy topo = Protocols.Bgp_net.network ~policy topo

let ospf ~policy topo = Protocols.Ospf_net.network ~policy topo

(* Pinned regressions for the one-time wave/event divergence: these two
   seeds schedule a policy override whose announce is still in flight
   when its link bounces (down and back up within one propagation
   delay). Event-at-a-time replay hits the bounce mid-flight; before the
   engine's per-link incarnation epochs, the stale message was delivered
   into the fresh session — the receiver absorbed a route its neighbor's
   reset Adj-RIB-Out never recorded, so no withdrawal could ever follow
   and the two modes disagreed forever. *)
let test_pinned_bounce_seed name make_runner seed () =
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %d: wave == event" name seed)
    true
    (equivalent_at ~policy_share:0.3 make_runner seed)

(* --- flap-coalescing edge cases --- *)

(* Same-timestamp down and up on one link inside one wave: the net
   effect is nothing — no injection, no traffic, forwarding untouched. *)
let test_flap_cancels () =
  let topo = random_brite ~seed:3 ~n:10 ~m:2 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let before = forwarding_snapshot 10 runner in
  let w =
    Delta_wave.apply (Delta_wave.create ()) topo runner
      [ Scenario.Set_links [ (0, false) ]; Scenario.Set_links [ (0, true) ] ]
  in
  Alcotest.(check int) "both events seen" 2 w.Delta_wave.events_seen;
  Alcotest.(check int) "flap cancelled" 2 w.Delta_wave.cancelled;
  Alcotest.(check int) "no surviving flips" 0 w.Delta_wave.link_sets;
  Alcotest.(check int) "nothing queued" 0 (runner.Sim.Runner.pending_events ());
  let stats = runner.Sim.Runner.run_to_quiescence () in
  Alcotest.(check int) "no traffic" 0 stats.Sim.Engine.messages;
  Alcotest.(check bool) "forwarding untouched" true
    (before = forwarding_snapshot 10 runner)

(* Re-asserting the current state is dropped too, and last-target-wins
   keeps a real transition. *)
let test_redundant_and_last_wins () =
  let topo = random_brite ~seed:4 ~n:10 ~m:2 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  (* up -> up: redundant; down, up, down: net transition down. *)
  let w =
    Delta_wave.apply (Delta_wave.create ()) topo runner
      [ Scenario.Set_links [ (1, true) ];
        Scenario.Set_links [ (2, false) ];
        Scenario.Set_links [ (2, true) ];
        Scenario.Set_links [ (2, false) ] ]
  in
  Alcotest.(check int) "one surviving flip" 1 w.Delta_wave.link_sets;
  Alcotest.(check int) "three cancelled" 3 w.Delta_wave.cancelled;
  ignore (runner.Sim.Runner.run_to_quiescence ());
  Alcotest.(check bool) "link 2 is down" false (Topology.is_up topo 2);
  Alcotest.(check bool) "link 1 stayed up" true (Topology.is_up topo 1)

(* A group holding an override but no [~policy] is refused before
   anything is injected: the link flip queued ahead of it never lands. *)
let test_apply_needs_policy () =
  let topo = random_brite ~seed:3 ~n:10 ~m:2 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  (match
     Delta_wave.apply (Delta_wave.create ()) topo runner
       [ Scenario.Set_links [ (0, false) ];
         Scenario.Set_policy [ Scenario.Leak { node = 1; on = true } ] ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "override applied without a policy");
  Alcotest.(check int) "nothing queued" 0 (runner.Sim.Runner.pending_events ());
  for l = 0 to Topology.num_links topo - 1 do
    Alcotest.(check bool) (Printf.sprintf "link %d still up" l) true
      (Topology.is_up topo l)
  done

(* Hand-built stream: an SRLG-style correlated cut whose members land on
   both sides of a window boundary (two links just before t=8, one just
   after, restores later). Wave replay must reach the event-at-a-time
   state, draining exactly three waves. *)
let test_srlg_across_boundary () =
  let mk_stream () =
    let ev at link_id up =
      { Scenario.at; change = Scenario.Set_links [ (link_id, up) ] }
    in
    { Stream.Update_stream.seed = 0;
      rate = 1.0;
      duration = 40.0;
      events =
        [| ev 7.8 4 false; ev 7.9 5 false; ev 8.1 6 false; ev 30.0 4 true;
           ev 30.5 5 true; ev 31.0 6 true |] }
  in
  let run mode =
    let topo = random_brite ~seed:7 ~n:nodes ~m:2 in
    let runner = Protocols.Bgp_net.network topo in
    let outcome =
      Stream.Replay.replay ~topo ~stream:(mk_stream ()) ~mode runner
    in
    (runner, outcome)
  in
  let a, _ = run Stream.Replay.Event_at_a_time in
  let b, outcome = run (Stream.Replay.Waves window) in
  Alcotest.(check int) "three waves drained" 3 outcome.Stream.Replay.waves;
  Alcotest.(check bool) "same forwarding" true (same_forwarding nodes a b)

(* A policy override and a link flip on the affected neighbor sharing
   one wave: the leak flips on in the same window the leaking node's
   link dies. *)
let test_policy_with_adjacent_flip () =
  let run mode =
    let topo = random_brite ~seed:11 ~n:nodes ~m:2 in
    let pol = Policy.default () in
    let runner = Protocols.Bgp_net.network ~policy:pol topo in
    let leaker = 1 in
    let link_id =
      match
        Topology.fold_neighbors topo leaker ~init:None ~f:(fun first _ _ id ->
            if first = None then Some id else first)
      with
      | Some link_id -> link_id
      | None -> Alcotest.fail "node 1 has no neighbors"
    in
    let ev at change = { Scenario.at; change } in
    let leak on = Scenario.Set_policy [ Scenario.Leak { node = leaker; on } ] in
    let stream =
      { Stream.Update_stream.seed = 0;
        rate = 1.0;
        duration = 40.0;
        events =
          [| ev 5.0 (leak true);
             ev 5.5 (Scenario.Set_links [ (link_id, false) ]);
             ev 25.0 (Scenario.Set_links [ (link_id, true) ]);
             ev 26.0 (leak false) |] }
    in
    ignore (Stream.Replay.replay ~policy:pol ~topo ~stream ~mode runner);
    runner
  in
  let a = run Stream.Replay.Event_at_a_time in
  let b = run (Stream.Replay.Waves window) in
  Alcotest.(check bool) "same forwarding" true (same_forwarding nodes a b)

(* --- generator and replay determinism --- *)

let test_generator_deterministic () =
  let topo = random_brite ~seed:9 ~n:nodes ~m:2 in
  let gen () =
    Stream.Update_stream.generate ~seed:42 ~rate:0.5 ~duration:60.0
      ~policy_share:0.2 ~loss_share:0.1 topo
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same events" true
    (Stream.Update_stream.events a = Stream.Update_stream.events b);
  Alcotest.(check bool) "non-empty" true (Stream.Update_stream.num_events a > 0);
  let sorted = ref true in
  let prev = ref neg_infinity in
  Array.iter
    (fun (e : Stream.Update_stream.event) ->
      if e.Scenario.at < !prev then sorted := false;
      prev := e.Scenario.at)
    (Stream.Update_stream.events a);
  Alcotest.(check bool) "sorted by time" true !sorted;
  (* Per-link transitions strictly alternate: generation only flaps free
     links, so event-at-a-time replay never injects a redundant change. *)
  let last : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let alternates = ref true in
  Array.iter
    (fun (e : Stream.Update_stream.event) ->
      match e.Scenario.change with
      | Scenario.Set_links [ (link_id, up) ] ->
        (match Hashtbl.find_opt last link_id with
        | Some prev when prev = up -> alternates := false
        | _ -> ());
        Hashtbl.replace last link_id up
      | _ -> ())
    (Stream.Update_stream.events a);
  Alcotest.(check bool) "per-link alternation" true !alternates

let test_replay_deterministic () =
  let run () =
    let topo = random_brite ~seed:21 ~n:nodes ~m:2 in
    let runner = Protocols.Centaur_net.network topo in
    let stream =
      Stream.Update_stream.generate ~seed:5 ~rate:0.4 ~duration:40.0
        ~loss_share:0.2 topo
    in
    Stream.Replay.replay ~topo ~stream ~mode:(Stream.Replay.Waves window)
      runner
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical outcomes" true (a = b)

let test_latency_stamps () =
  let topo = random_brite ~seed:13 ~n:nodes ~m:2 in
  let runner = Protocols.Centaur_net.network topo in
  let stream =
    Stream.Update_stream.generate ~seed:2 ~rate:0.4 ~duration:40.0 topo
  in
  let metrics = Obs.Metrics.create () in
  let outcome =
    Stream.Replay.replay ~metrics ~topo ~stream
      ~mode:(Stream.Replay.Waves window) runner
  in
  Alcotest.(check int) "one latency per update"
    (Stream.Update_stream.num_events stream)
    (Array.length outcome.Stream.Replay.latencies);
  Array.iter
    (fun l ->
      if not (Float.is_finite l) || l < 0.0 then
        Alcotest.failf "bad latency %g" l)
    outcome.Stream.Replay.latencies;
  Alcotest.(check bool) "makespan covers latencies" true
    (outcome.Stream.Replay.makespan >= 0.0);
  Alcotest.(check bool) "waves <= events" true
    (outcome.Stream.Replay.waves <= outcome.Stream.Replay.events);
  (* The enqueue->stable histogram saw every update too. *)
  let h =
    Obs.Metrics.histogram metrics
      ~buckets:[| 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0;
                  500.0; 1000.0; 2000.0; 5000.0 |]
      "stream.latency_ms"
  in
  Alcotest.(check int) "histogram count"
    (Stream.Update_stream.num_events stream)
    (Obs.Metrics.histogram_count h);
  (* Engine wave accounting reached the registry. *)
  Alcotest.(check bool) "engine.waves counted" true
    (Obs.Metrics.value (Obs.Metrics.counter metrics "engine.waves") > 0)

(* --- run_until split composition: finer stepping between waves must
   change nothing (a drain interrupted mid-wave resumes losslessly) --- *)

let test_split_stepping_composition () =
  let stream_of topo =
    Stream.Update_stream.generate ~seed:6 ~rate:0.5 ~duration:40.0
      ~flap_hold:10.0 topo
  in
  (* Reference: the driver's own wave replay. *)
  let topo_a = random_brite ~seed:17 ~n:nodes ~m:2 in
  let runner_a = Protocols.Bgp_net.network topo_a in
  ignore
    (Stream.Replay.replay ~topo:topo_a ~stream:(stream_of topo_a)
       ~mode:(Stream.Replay.Waves window) runner_a);
  (* Same schedule, but each inter-wave step is split into four
     run_until calls (quarter-window strides). *)
  let topo_b = random_brite ~seed:17 ~n:nodes ~m:2 in
  let runner_b = Protocols.Bgp_net.network topo_b in
  let stream = stream_of topo_b in
  ignore (runner_b.Sim.Runner.cold_start ());
  let base = runner_b.Sim.Runner.now () in
  let events = Stream.Update_stream.events stream in
  let horizon =
    Array.fold_left
      (fun acc (e : Stream.Update_stream.event) -> Float.max acc e.Scenario.at)
      0.0 events
  in
  let acc = Delta_wave.create () in
  let i = ref 0 in
  let nwin = int_of_float (ceil (horizon /. window)) in
  for k = 1 to nwin do
    let t = window *. float_of_int k in
    for s = 1 to 4 do
      ignore
        (runner_b.Sim.Runner.run_until
           (base +. t -. window +. (window *. float_of_int s /. 4.0)))
    done;
    (* A policy change would make [apply] raise: the stream must be
       link/loss only. *)
    let group = ref [] in
    while !i < Array.length events && events.(!i).Scenario.at <= t do
      group := events.(!i).Scenario.change :: !group;
      incr i
    done;
    if !group <> [] then
      ignore (Delta_wave.apply acc topo_b runner_b (List.rev !group))
  done;
  ignore (runner_b.Sim.Runner.run_to_quiescence ());
  Alcotest.(check bool) "split stepping == driver replay" true
    (same_forwarding nodes runner_a runner_b)

let suite =
  [ QCheck_alcotest.to_alcotest
      (equivalence ~name:"centaur" ~policy_share:0.3 centaur);
    QCheck_alcotest.to_alcotest
      (equivalence ~name:"bgp" ~policy_share:0.3 bgp);
    QCheck_alcotest.to_alcotest
      (equivalence ~name:"ospf" ~policy_share:0.0 ospf);
    Alcotest.test_case "pinned: bgp seed 6527 (in-flight msg vs bounce)"
      `Quick
      (test_pinned_bounce_seed "bgp" bgp 6527);
    Alcotest.test_case "pinned: centaur seed 116 (in-flight msg vs bounce)"
      `Quick
      (test_pinned_bounce_seed "centaur" centaur 116);
    Alcotest.test_case "flap cancels inside a wave" `Quick test_flap_cancels;
    Alcotest.test_case "redundant dropped, last target wins" `Quick
      test_redundant_and_last_wins;
    Alcotest.test_case "SRLG cut across a window boundary" `Quick
      test_srlg_across_boundary;
    Alcotest.test_case "policy flip + adjacent link flip share a wave"
      `Quick test_policy_with_adjacent_flip;
    Alcotest.test_case "generator deterministic and well-formed" `Quick
      test_generator_deterministic;
    Alcotest.test_case "replay deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "latency stamps cover every update" `Quick
      test_latency_stamps;
    Alcotest.test_case "split run_until stepping composes" `Quick
      test_split_stepping_composition;
    QCheck_alcotest.to_alcotest event_waves_never_cancel;
    Alcotest.test_case "override without a policy injects nothing" `Quick
      test_apply_needs_policy;
    QCheck_alcotest.to_alcotest waves_never_precede_events ]
