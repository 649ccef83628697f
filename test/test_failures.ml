(* Failure injection beyond single flips: simultaneous failures,
   node-adjacent cuts (a whole node's links die at once), flapping, and
   recovery — every protocol must land back on the stable solution. *)

open Helpers

let runners topo_factory =
  [ ("centaur", Protocols.Centaur_net.network (topo_factory ()));
    ("bgp", Protocols.Bgp_net.network (topo_factory ()));
    ("bgp-rcn", Protocols.Bgp_net.network ~rcn:true (topo_factory ())) ]

let check_against_solver what topo runner =
  check_matches_solver ~what topo runner

let test_simultaneous_failures () =
  let factory () = random_as_topology ~seed:121 ~n:30 in
  let reference = factory () in
  List.iter
    (fun (name, runner) ->
      ignore (runner.Sim.Runner.cold_start ());
      flip_many runner [ (2, false); (7, false); (11, false) ];
      Topology.set_up reference 2 false;
      Topology.set_up reference 7 false;
      Topology.set_up reference 11 false;
      check_against_solver (name ^ " triple failure") reference runner;
      flip_many runner [ (2, true); (7, true); (11, true) ];
      Topology.set_up reference 2 true;
      Topology.set_up reference 7 true;
      Topology.set_up reference 11 true;
      check_against_solver (name ^ " triple recovery") reference runner)
    (runners factory)

let test_node_cut () =
  (* Take down every link of one transit node at once — the node
     disappears from the routing system; bring it back. *)
  let factory () = random_brite ~seed:122 ~n:40 ~m:2 in
  let reference = factory () in
  (* Pick a node with several links: the generator's node 1 is an early
     high-degree node. *)
  let victim = 1 in
  let adjacent =
    List.rev
      (Topology.fold_neighbors reference victim ~init:[] ~f:(fun acc _ _ id ->
           id :: acc))
  in
  Alcotest.(check bool) "victim is transit" true (List.length adjacent >= 3);
  List.iter
    (fun (name, runner) ->
      ignore (runner.Sim.Runner.cold_start ());
      flip_many runner (List.map (fun id -> (id, false)) adjacent);
      List.iter (fun id -> Topology.set_up reference id false) adjacent;
      check_against_solver (name ^ " node cut") reference runner;
      (* The victim itself must consider everyone unreachable. *)
      Alcotest.(check (option int))
        (name ^ ": victim isolated") None
        (runner.Sim.Runner.next_hop ~src:victim ~dest:0);
      flip_many runner (List.map (fun id -> (id, true)) adjacent);
      List.iter (fun id -> Topology.set_up reference id true) adjacent;
      check_against_solver (name ^ " node restored") reference runner)
    (runners factory)

let test_flapping_link () =
  let factory () = random_as_topology ~seed:123 ~n:25 in
  let reference = factory () in
  List.iter
    (fun (name, runner) ->
      ignore (runner.Sim.Runner.cold_start ());
      for _ = 1 to 5 do
        ignore (runner.Sim.Runner.flip ~link_id:4 ~up:false);
        ignore (runner.Sim.Runner.flip ~link_id:4 ~up:true)
      done;
      check_against_solver (name ^ " after flapping") reference runner)
    (runners factory)

let test_partition_and_heal () =
  (* A line cut in half: the two sides must consider each other
     unreachable, then heal. *)
  let factory () = Fixtures.line 8 in
  let reference = factory () in
  let cut = 3 (* link between nodes 3 and 4 *) in
  List.iter
    (fun (name, runner) ->
      ignore (runner.Sim.Runner.cold_start ());
      ignore (runner.Sim.Runner.flip ~link_id:cut ~up:false);
      Alcotest.(check (option int))
        (name ^ ": across the cut") None
        (runner.Sim.Runner.next_hop ~src:0 ~dest:7);
      Alcotest.(check bool)
        (name ^ ": same side still routes") true
        (runner.Sim.Runner.next_hop ~src:0 ~dest:3 = Some 1);
      ignore (runner.Sim.Runner.flip ~link_id:cut ~up:true);
      Topology.set_up reference cut true;
      check_against_solver (name ^ " healed") reference runner)
    (runners factory)

let test_ospf_simultaneous_failures () =
  let factory () = random_brite ~seed:124 ~n:30 ~m:2 in
  let reference = factory () in
  let runner = Protocols.Ospf_net.network (factory ()) in
  ignore (runner.Sim.Runner.cold_start ());
  flip_many runner [ (1, false); (5, false) ];
  Topology.set_up reference 1 false;
  Topology.set_up reference 5 false;
  let n = Topology.num_nodes reference in
  for src = 0 to n - 1 do
    let tree = Dijkstra.from reference ~src in
    for dest = 0 to n - 1 do
      if src <> dest then
        Alcotest.(check (option int))
          (Printf.sprintf "ospf %d->%d" src dest)
          (Dijkstra.next_hop_to tree dest)
          (runner.Sim.Runner.next_hop ~src ~dest)
    done
  done

let suite =
  [ Alcotest.test_case "simultaneous failures" `Quick
      test_simultaneous_failures;
    Alcotest.test_case "node cut" `Quick test_node_cut;
    Alcotest.test_case "flapping link" `Quick test_flapping_link;
    Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
    Alcotest.test_case "ospf simultaneous failures" `Quick
      test_ospf_simultaneous_failures ]
