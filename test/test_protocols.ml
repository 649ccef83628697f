(* End-to-end protocol runs on the simulator: Centaur and BGP must both
   converge to the static solver's stable solution; OSPF must converge to
   shortest paths; failures and recoveries must re-converge correctly and
   without forwarding loops. *)

open Helpers

let test_centaur_matches_solver_fig2 () =
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  check_matches_solver ~what:"centaur" topo runner

let test_bgp_matches_solver_fig2 () =
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Bgp_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  check_matches_solver ~what:"bgp" topo runner

let test_centaur_matches_solver_random () =
  let topo = random_as_topology ~seed:31 ~n:40 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  check_matches_solver ~what:"centaur/as40" topo runner

let test_bgp_matches_solver_random () =
  let topo = random_as_topology ~seed:31 ~n:40 in
  let runner = Protocols.Bgp_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  check_matches_solver ~what:"bgp/as40" topo runner

let test_centaur_matches_solver_brite () =
  let topo = random_brite ~seed:32 ~n:50 ~m:2 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  check_matches_solver ~what:"centaur/brite50" topo runner

let test_bgp_matches_solver_brite () =
  let topo = random_brite ~seed:32 ~n:50 ~m:2 in
  let runner = Protocols.Bgp_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  check_matches_solver ~what:"bgp/brite50" topo runner

let test_centaur_reconverges_after_failure () =
  let topo = random_as_topology ~seed:33 ~n:30 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let link_id = 2 in
  ignore (runner.Sim.Runner.flip ~link_id ~up:false);
  check_matches_solver ~what:"centaur post-failure" topo runner;
  ignore (runner.Sim.Runner.flip ~link_id ~up:true);
  check_matches_solver ~what:"centaur post-recovery" topo runner

let test_bgp_reconverges_after_failure () =
  let topo = random_as_topology ~seed:33 ~n:30 in
  let runner = Protocols.Bgp_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let link_id = 2 in
  ignore (runner.Sim.Runner.flip ~link_id ~up:false);
  check_matches_solver ~what:"bgp post-failure" topo runner;
  ignore (runner.Sim.Runner.flip ~link_id ~up:true);
  check_matches_solver ~what:"bgp post-recovery" topo runner

let test_no_forwarding_loops_after_each_flip () =
  (* The Figure 1 / Figure 2 failure mode: data-plane loops from
     inconsistent views. After convergence, following next hops must
     reach the destination for every reachable pair. *)
  let topo = random_as_topology ~seed:34 ~n:30 in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let n = Topology.num_nodes topo in
  let check_all what =
    for dest = 0 to n - 1 do
      let r = Solver.to_dest topo dest in
      for src = 0 to n - 1 do
        if src <> dest && Solver.reachable r src then
          match
            Path.follow
              (fun v -> runner.Sim.Runner.next_hop ~src:v ~dest)
              ~src ~dest
          with
          | Path.Reached _ -> ()
          | Path.Stuck _ | Path.Looped _ ->
            Alcotest.failf "%s: %d cannot forward to %d" what src dest
      done
    done
  in
  check_all "cold";
  List.iter
    (fun link_id ->
      ignore (runner.Sim.Runner.flip ~link_id ~up:false);
      ignore (runner.Sim.Runner.flip ~link_id ~up:true))
    [ 0; 3; 7 ];
  check_all "after flips"

let test_ospf_shortest_paths () =
  let topo = random_brite ~seed:35 ~n:40 ~m:2 in
  let runner = Protocols.Ospf_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let n = Topology.num_nodes topo in
  for src = 0 to n - 1 do
    let tree = Dijkstra.from topo ~src in
    for dest = 0 to n - 1 do
      if src <> dest then
        Alcotest.(check (option int))
          (Printf.sprintf "ospf next hop %d->%d" src dest)
          (Dijkstra.next_hop_to tree dest)
          (runner.Sim.Runner.next_hop ~src ~dest)
    done
  done

let test_ospf_reconverges_after_failure () =
  let topo = random_brite ~seed:36 ~n:30 ~m:2 in
  let runner = Protocols.Ospf_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let link_id = 1 in
  ignore (runner.Sim.Runner.flip ~link_id ~up:false);
  let n = Topology.num_nodes topo in
  for src = 0 to n - 1 do
    let tree = Dijkstra.from topo ~src in
    for dest = 0 to n - 1 do
      if src <> dest then
        Alcotest.(check (option int))
          (Printf.sprintf "post-failure %d->%d" src dest)
          (Dijkstra.next_hop_to tree dest)
          (runner.Sim.Runner.next_hop ~src ~dest)
    done
  done

(* Dijkstra's tie-break, which [Ospf_net]'s SPF-cache check relies on:
   among equally short paths, a node's predecessor is the lowest-id
   neighbor [p] with [dist p + w = dist v]. *)
let test_dijkstra_diamond_tie_break () =
  (* 0-2-3 is listed first, so a tie broken by link order would pick 2. *)
  let topo =
    Topology.create ~n:4
      [ (0, 2, Relationship.Peer, 1.0);
        (2, 3, Relationship.Peer, 1.0);
        (0, 1, Relationship.Peer, 1.0);
        (1, 3, Relationship.Peer, 1.0) ]
  in
  let tree = Dijkstra.from topo ~src:0 in
  Alcotest.(check (option (float 0.0))) "dist 0->3" (Some 2.0)
    (Dijkstra.dist tree 3);
  Alcotest.(check (option int)) "predecessor of 3" (Some 1)
    (Dijkstra.predecessor tree 3)

let dijkstra_tie_break_qcheck =
  QCheck.Test.make
    ~name:"dijkstra = reference distances and lowest-id predecessors"
    ~count:(Helpers.qcheck_count 300)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 2 + (seed mod 11) in
      let src = seed / 11 mod n in
      let topo =
        Helpers.random_connected ~seed ~n ~extra:n ~delays:[| 1.0; 2.0; 3.0 |]
      in
      let links = Topology.links topo in
      (* Reference distances: Bellman-Ford over the (undirected) links. *)
      let dist = Array.make n infinity in
      dist.(src) <- 0.0;
      for _ = 1 to n do
        Array.iter
          (fun { Topology.a; b; delay = w; _ } ->
            if dist.(a) +. w < dist.(b) then dist.(b) <- dist.(a) +. w;
            if dist.(b) +. w < dist.(a) then dist.(a) <- dist.(b) +. w)
          links
      done;
      let reference_pred v =
        Array.fold_left
          (fun best { Topology.a; b; delay = w; _ } ->
            let consider p =
              if dist.(p) +. w = dist.(v) then
                match best with Some q when q <= p -> best | _ -> Some p
              else best
            in
            if a = v then consider b else if b = v then consider a else best)
          None links
      in
      let tree = Dijkstra.from topo ~src in
      for v = 0 to n - 1 do
        if Dijkstra.dist tree v <> Some dist.(v) then
          QCheck.Test.fail_reportf "dist %d->%d" src v;
        let expected = if v = src then None else reference_pred v in
        if Dijkstra.predecessor tree v <> expected then
          QCheck.Test.fail_reportf "predecessor of %d from %d" v src
      done;
      true)

let test_centaur_cheaper_than_bgp_on_failure () =
  (* The headline claim, in miniature: a link failure costs Centaur fewer
     update messages than BGP on the same topology (the paper's message
     count metric — BGP updates are per-prefix, Centaur announcements
     batch the link changes of one recomputation). *)
  let make () = random_as_topology ~seed:37 ~n:60 in
  let centaur = Protocols.Centaur_net.network (make ()) in
  let bgp = Protocols.Bgp_net.network (make ()) in
  ignore (centaur.Sim.Runner.cold_start ());
  ignore (bgp.Sim.Runner.cold_start ());
  let c_msgs = ref 0 and b_msgs = ref 0 in
  List.iter
    (fun link_id ->
      let c = centaur.Sim.Runner.flip ~link_id ~up:false in
      let b = bgp.Sim.Runner.flip ~link_id ~up:false in
      c_msgs := !c_msgs + c.Sim.Engine.messages;
      b_msgs := !b_msgs + b.Sim.Engine.messages;
      ignore (centaur.Sim.Runner.flip ~link_id ~up:true);
      ignore (bgp.Sim.Runner.flip ~link_id ~up:true))
    [ 4; 9; 15; 22 ];
  if !c_msgs >= !b_msgs then
    Alcotest.failf "centaur %d messages >= bgp %d messages" !c_msgs !b_msgs

let test_convergence_harness () =
  let topo = random_brite ~seed:38 ~n:25 ~m:2 in
  let runner = Protocols.Centaur_net.network topo in
  let result = Protocols.Convergence.flip_links runner ~links:[ 0; 1; 2 ] in
  Alcotest.(check int) "three flips" 3 (List.length result.Protocols.Convergence.flips);
  Alcotest.(check int) "six samples" 6
    (Array.length (Protocols.Convergence.times result));
  Array.iter
    (fun t ->
      if t < 0.0 then Alcotest.fail "negative convergence time")
    (Protocols.Convergence.times result)

let suite =
  [ Alcotest.test_case "centaur = solver (fig2)" `Quick
      test_centaur_matches_solver_fig2;
    Alcotest.test_case "bgp = solver (fig2)" `Quick
      test_bgp_matches_solver_fig2;
    Alcotest.test_case "centaur = solver (as40)" `Quick
      test_centaur_matches_solver_random;
    Alcotest.test_case "bgp = solver (as40)" `Quick
      test_bgp_matches_solver_random;
    Alcotest.test_case "centaur = solver (brite50)" `Quick
      test_centaur_matches_solver_brite;
    Alcotest.test_case "bgp = solver (brite50)" `Quick
      test_bgp_matches_solver_brite;
    Alcotest.test_case "centaur reconverges after failure" `Quick
      test_centaur_reconverges_after_failure;
    Alcotest.test_case "bgp reconverges after failure" `Quick
      test_bgp_reconverges_after_failure;
    Alcotest.test_case "no forwarding loops after flips" `Quick
      test_no_forwarding_loops_after_each_flip;
    Alcotest.test_case "ospf computes shortest paths" `Quick
      test_ospf_shortest_paths;
    Alcotest.test_case "ospf reconverges after failure" `Quick
      test_ospf_reconverges_after_failure;
    Alcotest.test_case "dijkstra diamond tie-break" `Quick
      test_dijkstra_diamond_tie_break;
    QCheck_alcotest.to_alcotest dijkstra_tie_break_qcheck;
    Alcotest.test_case "centaur cheaper than bgp on failure" `Quick
      test_centaur_cheaper_than_bgp_on_failure;
    Alcotest.test_case "convergence harness" `Quick test_convergence_harness ]
