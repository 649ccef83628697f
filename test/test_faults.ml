(* Fault subsystem: scenario compilation, transient-correctness
   observer, the Figure 1/2 regression (BGP's blackhole window vs
   Centaur's local failover), correlated flips, and the determinism and
   run_until-composition properties the experiment relies on. *)

open Faults

let link_ab = 0 (* figure2a link ids, in declaration order *)
let link_ac = 1
let link_bd = 2
let link_cd = 3

let scenario ?(name = "test") ?(seed = 1) ?(horizon = 100.0)
    ?(sample_every = 1.0) faults =
  { Scenario.name; seed; horizon; sample_every; faults }

(* --- scenario DSL --- *)

let test_compile_ordering () =
  let topo = Fixtures.figure2a () in
  let events =
    Scenario.compile topo
      (scenario
         [ Scenario.Link_flap { link_id = link_ab; at = 20.0; duration = 10.0 };
           Scenario.Srlg_cut { links = [ link_ac; link_bd ]; at = 20.0;
                               duration = 5.0 };
           Scenario.Lossy_link { link_id = link_cd; rate = 0.5; from_t = 5.0;
                                 until_t = 15.0 } ])
  in
  let expected =
    [ (5.0, Scenario.Set_loss [ (link_cd, 0.5) ]);
      (15.0, Scenario.Set_loss [ (link_cd, 0.0) ]);
      (* Simultaneous changes keep declaration order; the SRLG stays one
         atomic group. *)
      (20.0, Scenario.Set_links [ (link_ab, false) ]);
      (20.0, Scenario.Set_links [ (link_ac, false); (link_bd, false) ]);
      (25.0, Scenario.Set_links [ (link_ac, true); (link_bd, true) ]);
      (30.0, Scenario.Set_links [ (link_ab, true) ]) ]
  in
  Alcotest.(check int) "event count" (List.length expected)
    (List.length events);
  List.iter2
    (fun (at, change) (e : Scenario.event) ->
      Alcotest.(check (float 1e-9)) "event time" at e.Scenario.at;
      Alcotest.(check bool) "event change" true (change = e.Scenario.change))
    expected events;
  Alcotest.(check int) "two disruptions" 2
    (List.length
       (List.filter (fun (e : Scenario.event) -> Scenario.disrupts e.change)
          events))

let test_node_outage_expansion () =
  let topo = Fixtures.figure4 () in
  Alcotest.(check (list int)) "adjacent links of d" [ 2; 3; 4 ]
    (Scenario.adjacent_links topo 3);
  let events =
    Scenario.compile topo
      (scenario [ Scenario.Node_outage { node = 3; at = 7.0; duration = 3.0 } ])
  in
  (match events with
  | [ cut; restore ] ->
    Alcotest.(check bool) "atomic cut" true
      (cut.Scenario.change
      = Scenario.Set_links [ (2, false); (3, false); (4, false) ]);
    Alcotest.(check (float 1e-9)) "restore time" 10.0 restore.Scenario.at;
    Alcotest.(check bool) "atomic restore" true
      (restore.Scenario.change
      = Scenario.Set_links [ (2, true); (3, true); (4, true) ])
  | _ -> Alcotest.fail "expected cut + restore");
  let staggered =
    Scenario.compile topo
      (scenario
         [ Scenario.Maintenance { links = [ 0; 1 ]; at = 10.0; stagger = 4.0;
                                  hold = 2.0 } ])
  in
  Alcotest.(check (list (pair (float 1e-9) bool)))
    "maintenance staggers singly"
    [ (10.0, false); (12.0, true); (14.0, false); (16.0, true) ]
    (List.map
       (fun (e : Scenario.event) ->
         match e.Scenario.change with
         | Scenario.Set_links [ (_, up) ] -> (e.Scenario.at, up)
         | _ -> Alcotest.fail "maintenance must move one link at a time")
       staggered)

let test_compile_validates () =
  let topo = Fixtures.figure2a () in
  let rejects what faults =
    match Scenario.compile topo (scenario faults) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "out-of-range link"
    [ Scenario.Link_flap { link_id = 9; at = 1.0; duration = 1.0 } ];
  rejects "negative time"
    [ Scenario.Link_flap { link_id = 0; at = -1.0; duration = 1.0 } ];
  rejects "bad loss rate"
    [ Scenario.Lossy_link { link_id = 0; rate = 1.5; from_t = 0.0;
                            until_t = 1.0 } ];
  rejects "out-of-range node"
    [ Scenario.Node_outage { node = 4; at = 1.0; duration = 1.0 } ]

let test_random_churn_deterministic () =
  let topo = Helpers.random_brite ~seed:11 ~n:12 ~m:2 in
  let a = Scenario.random_churn ~seed:42 ~horizon:200.0 ~sample_every:5.0 topo
  and b = Scenario.random_churn ~seed:42 ~horizon:200.0 ~sample_every:5.0 topo
  and c = Scenario.random_churn ~seed:43 ~horizon:200.0 ~sample_every:5.0 topo in
  Alcotest.(check bool) "equal seeds, equal scenarios" true (a = b);
  Alcotest.(check bool) "different seeds differ" true (a.faults <> c.faults);
  (* Every generated fault must survive validation on its topology. *)
  Alcotest.(check bool) "compiles" true
    (List.length (Scenario.compile topo a) > 0)

(* --- observer --- *)

let test_observer_classification () =
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let obs = Observer.create topo ~pairs:[ (0, 3); (1, 3) ] ~sample_every:1.0 in
  Observer.refresh_truth obs;
  Alcotest.(check bool) "converged pair delivers" true
    (Observer.probe obs runner ~src:0 ~dest:3 = Observer.Delivered);
  (* Cut B-D without running: B's stale next hop points over the dead
     link, which the data-plane walk must flag. *)
  runner.Sim.Runner.inject [ (link_bd, false) ];
  Observer.refresh_truth obs;
  Alcotest.(check bool) "stale hop over dead link blackholes" true
    (Observer.probe obs runner ~src:1 ~dest:3 = Observer.Blackholed);
  ignore (runner.Sim.Runner.run_to_quiescence ());
  Alcotest.(check bool) "reconverges around the cut" true
    (Observer.probe obs runner ~src:1 ~dest:3 = Observer.Delivered);
  (* Sever the destination entirely: excused, not charged. *)
  runner.Sim.Runner.inject [ (link_cd, false) ];
  ignore (runner.Sim.Runner.run_to_quiescence ());
  Observer.refresh_truth obs;
  Alcotest.(check bool) "unreachable dest is unroutable" true
    (Observer.probe obs runner ~src:1 ~dest:3 = Observer.Unroutable)

let test_observer_detects_loop () =
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  (* A synthetic forwarding state where A and B bounce the packet. *)
  let looping =
    { runner with
      Sim.Runner.next_hop =
        (fun ~src ~dest:_ -> if src = 0 then Some 1 else Some 0) }
  in
  let obs = Observer.create topo ~pairs:[ (0, 3) ] ~sample_every:1.0 in
  Observer.refresh_truth obs;
  Alcotest.(check bool) "bounce is a loop" true
    (Observer.probe obs looping ~src:0 ~dest:3 = Observer.Looped)

(* --- Injector.drive --- *)

(* [drive]'s runner calls, read back through its hooks with the
   clock each one sees: a wave and a sample at one time fire wave, then
   sample; a wave after the last sample still fires, and it is applied
   before the final drain. *)
let test_drive_order () =
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let base = runner.Sim.Runner.now () in
  let log = ref [] in
  let note what at =
    log :=
      Printf.sprintf "%s %g @%g" what at (runner.Sim.Runner.now () -. base)
      :: !log
  in
  let flip at up =
    (at, [ { Scenario.at; change = Scenario.Set_links [ (link_bd, up) ] } ])
  in
  let queued = ref 0 in
  ignore
    (Injector.drive runner ~topo ~seed:1
       ~waves:[ flip 5.0 false; flip 20.0 true ]
       ~samples:[ 0.0; 5.0; 10.0 ]
       { before_wave = (fun ~at _ -> note "before" at);
         after_wave =
           (fun ~at _ w ->
             note (Printf.sprintf "after(%d)" w.Delta_wave.link_sets) at;
             queued := runner.Sim.Runner.pending_events ());
         sample = (fun t -> note "sample" t) });
  Alcotest.(check (list string)) "call order"
    [ "sample 0 @0"; "before 5 @5"; "after(1) 5 @5"; "sample 5 @5";
      "sample 10 @10"; "before 20 @20"; "after(1) 20 @20" ]
    (List.rev !log);
  Alcotest.(check bool) "last wave queued work" true (!queued > 0);
  Alcotest.(check int) "drained" 0 (runner.Sim.Runner.pending_events ());
  Alcotest.(check bool) "last wave applied" true (Topology.is_up topo link_bd)

(* --- the Figure 1/2 regression --- *)

(* The paper's motivating failure: when B-D dies, BGP's B blackholes
   traffic to D until withdrawal and (MRAI-delayed) re-advertisement
   replace the route, while Centaur's B fails over on its local P-graph
   immediately. The observer must measure a strictly larger unavailable
   window for BGP. *)
let test_figure2a_bgp_window () =
  let run ~what make =
    let topo = Fixtures.figure2a () in
    let trace = Obs.Trace.create () in
    let runner = make ~trace topo in
    let report =
      Injector.run runner ~topo
        ~scenario:
          (scenario ~seed:5 ~horizon:120.0 ~sample_every:1.0
             [ Scenario.Link_flap { link_id = link_bd; at = 10.0;
                                    duration = 60.0 } ])
        ~pairs:[ (1, 3); (0, 3) ]
    in
    (* The trace of the whole injected run doubles as an oracle: no
       delivery may slip past the cut, no batch may leak, no export may
       repeat. *)
    Obs.Check.expect_ok ~what trace;
    report
  in
  let centaur =
    run ~what:"fig2a centaur" (fun ~trace topo ->
        Protocols.Centaur_net.network ~trace topo)
  in
  let bgp =
    run ~what:"fig2a bgp" (fun ~trace topo ->
        Protocols.Bgp_net.network ~mrai:30.0 ~trace topo)
  in
  Alcotest.(check bool) "bgp leaves a transient window" true
    (bgp.Observer.unavailable_ms > 0.0);
  Alcotest.(check bool) "centaur strictly smaller window" true
    (centaur.Observer.unavailable_ms < bgp.Observer.unavailable_ms);
  Alcotest.(check bool) "centaur availability at least bgp's" true
    (centaur.Observer.availability >= bgp.Observer.availability);
  Alcotest.(check bool) "nothing unroutable in the diamond" true
    (centaur.Observer.unroutable_ms = 0.0 && bgp.Observer.unroutable_ms = 0.0)

(* --- determinism and composition properties --- *)

let scenario_report seed =
  let topo = Helpers.random_brite ~seed:21 ~n:10 ~m:2 in
  let s =
    Scenario.random_churn ~seed ~horizon:150.0 ~sample_every:5.0 ~flaps:3 topo
  in
  let trace = Obs.Trace.create ~capacity:(1 lsl 17) () in
  let runner = Protocols.Centaur_net.network ~trace topo in
  let report =
    Injector.run runner ~topo ~scenario:s ~pairs:[ (0, 7); (3, 9); (8, 1) ]
  in
  (* Every randomized churn run must replay cleanly through the
     invariant checker (the report equality below stays the primary
     determinism oracle). *)
  Obs.Check.expect_ok ~what:"random churn trace" trace;
  report

let determinism_qcheck =
  QCheck.Test.make ~name:"same fault seed, identical report"
    ~count:(Helpers.qcheck_count 5)
    QCheck.(int_bound 1000)
    (fun seed ->
      (* Fresh topology + runner each time: equality means the whole
         pipeline (churn generation, loss draws, sampling) is a pure
         function of the seed. *)
      compare (scenario_report seed) (scenario_report seed) = 0)

let composition_qcheck =
  QCheck.Test.make ~name:"run_until splits compose to one full run"
    ~count:(Helpers.qcheck_count 25)
    QCheck.(int_range 1 200)
    (fun tenths ->
      let full_run () =
        let topo = Fixtures.figure4 () in
        let runner = Protocols.Centaur_net.network topo in
        ignore (runner.Sim.Runner.cold_start ());
        runner.Sim.Runner.inject [ (link_bd, false) ];
        (topo, runner)
      in
      let topo_a, a = full_run () in
      let s1 = a.Sim.Runner.run_until
          (a.Sim.Runner.now () +. (0.1 *. float_of_int tenths)) in
      let s2 = a.Sim.Runner.run_to_quiescence () in
      let _topo_b, b = full_run () in
      let s = b.Sim.Runner.run_to_quiescence () in
      let open Sim.Engine in
      s1.messages + s2.messages = s.messages
      && s1.units + s2.units = s.units
      && s1.deliveries + s2.deliveries = s.deliveries
      && s1.losses + s2.losses = s.losses
      && s1.events + s2.events = s.events
      && (* and the converged forwarding state is the same *)
      List.for_all
        (fun (src, dest) ->
          a.Sim.Runner.next_hop ~src ~dest = b.Sim.Runner.next_hop ~src ~dest)
        (List.concat_map
           (fun src ->
             List.filter_map
               (fun dest -> if src = dest then None else Some (src, dest))
               (List.init (Topology.num_nodes topo_a) Fun.id))
           (List.init (Topology.num_nodes topo_a) Fun.id)))

let suite =
  [ Alcotest.test_case "compile ordering" `Quick test_compile_ordering;
    Alcotest.test_case "node outage expansion" `Quick
      test_node_outage_expansion;
    Alcotest.test_case "compile validates" `Quick test_compile_validates;
    Alcotest.test_case "random churn deterministic" `Quick
      test_random_churn_deterministic;
    Alcotest.test_case "observer classification" `Quick
      test_observer_classification;
    Alcotest.test_case "observer detects loop" `Quick
      test_observer_detects_loop;
    Alcotest.test_case "drive: wave before sample, late wave applied" `Quick
      test_drive_order;
    Alcotest.test_case "figure2a: bgp window, centaur failover" `Quick
      test_figure2a_bgp_window;
    QCheck_alcotest.to_alcotest determinism_qcheck;
    QCheck_alcotest.to_alcotest composition_qcheck ]
