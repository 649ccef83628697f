(* Static Gao–Rexford solver: worked examples from the paper's figures,
   plus the structural invariants (valley-freeness, loop-freeness,
   suffix consistency — Observation 1) on generated topologies. *)

open Helpers

let fig2 = Fixtures.figure2a

let test_fig2_routes_to_d () =
  let topo = fig2 () in
  let r = Solver.to_dest topo Fixtures.d in
  (* B and C reach their customer D directly; A goes through its
     customer B (lowest next-hop id among the two equal candidates). *)
  check_path_opt "B -> D" (Some [ Fixtures.b; Fixtures.d ])
    (Solver.path r Fixtures.b);
  check_path_opt "C -> D" (Some [ Fixtures.c; Fixtures.d ])
    (Solver.path r Fixtures.c);
  check_path_opt "A -> D"
    (Some [ Fixtures.a; Fixtures.b; Fixtures.d ])
    (Solver.path r Fixtures.a)

let test_fig2_route_classes () =
  let topo = fig2 () in
  let r = Solver.to_dest topo Fixtures.d in
  Alcotest.(check (option string))
    "A's route to D is a customer route" (Some "customer-route")
    (Option.map Gao_rexford.class_to_string (Solver.class_of r Fixtures.a));
  let r_a = Solver.to_dest topo Fixtures.a in
  Alcotest.(check (option string))
    "D's route to A is a provider route" (Some "provider-route")
    (Option.map Gao_rexford.class_to_string (Solver.class_of r_a Fixtures.d))

let test_fig2_destination_is_origin () =
  let topo = fig2 () in
  let r = Solver.to_dest topo Fixtures.d in
  Alcotest.(check (option string))
    "destination class" (Some "origin")
    (Option.map Gao_rexford.class_to_string (Solver.class_of r Fixtures.d));
  check_path_opt "trivial path" (Some [ Fixtures.d ]) (Solver.path r Fixtures.d)

let test_triangle_peering_no_transit () =
  (* Figure 1's triangle with A and B as peers over C: A must NOT route
     to B through its customer C's other provider... C is a customer of
     both, so A reaches B directly over the peering link; C never
     transits between its two providers. *)
  let topo = Fixtures.figure1_triangle () in
  let r_b = Solver.to_dest topo Fixtures.b in
  check_path_opt "A -> B via peering"
    (Some [ Fixtures.a; Fixtures.b ])
    (Solver.path r_b Fixtures.a);
  let r_c = Solver.to_dest topo Fixtures.c in
  check_path_opt "A -> C direct"
    (Some [ Fixtures.a; Fixtures.c ])
    (Solver.path r_c Fixtures.a)

let test_two_tier_crosses_peering_once () =
  let topo = Fixtures.two_tier_peering () in
  let r = Solver.to_dest topo 4 in
  (* 2 (customer of 0) reaches 4 (customer of 1) up, across 0–1, down. *)
  check_path_opt "2 -> 4" (Some [ 2; 0; 1; 4 ]) (Solver.path r 2)

let test_line_reachability () =
  let topo = Fixtures.line 6 in
  let r = Solver.to_dest topo 5 in
  for src = 0 to 4 do
    check_path_opt
      (Printf.sprintf "%d -> 5 along the chain" src)
      (Some (List.init (6 - src) (fun i -> src + i)))
      (Solver.path r src)
  done

let test_no_valley_through_stub () =
  (* Star: center 0 provides 1..n-1. Leaves reach each other through the
     provider; leaves never transit. *)
  let topo = Fixtures.star 5 in
  let r = Solver.to_dest topo 4 in
  check_path_opt "1 -> 4 via provider" (Some [ 1; 0; 4 ]) (Solver.path r 1)

let test_disconnected_unreachable () =
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Customer, 1.0); (2, 3, Relationship.Customer, 1.0) ]
  in
  let r = Solver.to_dest topo 0 in
  Alcotest.(check bool) "2 cannot reach 0" false (Solver.reachable r 2);
  Alcotest.(check bool) "1 can reach 0" true (Solver.reachable r 1)

let test_peer_route_not_exported_to_peer () =
  (* 0 – 1 peers, 1 – 2 peers: 0 must not reach 2 through 1 (peer routes
     are not exported to peers) — with no other connectivity, 2 is
     unreachable from 0. *)
  let topo =
    Topology.create ~n:3
      [ (0, 1, Relationship.Peer, 1.0); (1, 2, Relationship.Peer, 1.0) ]
  in
  let r = Solver.to_dest topo 2 in
  Alcotest.(check bool) "0 cannot use two peering hops" false
    (Solver.reachable r 0);
  Alcotest.(check bool) "1 reaches its peer" true (Solver.reachable r 1)

let test_provider_route_not_exported_to_peer () =
  (* 2 is 1's provider; 0 peers with 1. 0 must not learn 1's provider
     route to 2's other customer 3. *)
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Peer, 1.0);
        (1, 2, Relationship.Provider, 1.0);
        (2, 3, Relationship.Customer, 1.0) ]
  in
  let r = Solver.to_dest topo 3 in
  Alcotest.(check bool) "1 reaches 3 via provider" true (Solver.reachable r 1);
  Alcotest.(check bool) "0 must not transit its peer's provider" false
    (Solver.reachable r 0)

let test_sibling_transparency () =
  (* 1 and 2 are siblings; 3 is 2's provider-route destination. A peer 0
     of 1 may use 1's customer routes but not routes 1 inherited from the
     sibling with provider class. *)
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Peer, 1.0);
        (1, 2, Relationship.Sibling, 1.0);
        (2, 3, Relationship.Provider, 1.0) ]
  in
  let r = Solver.to_dest topo 3 in
  Alcotest.(check bool) "sibling inherits provider route" true
    (Solver.reachable r 1);
  Alcotest.(check bool) "peer cannot use inherited provider route" false
    (Solver.reachable r 0)

let test_sibling_customer_route_exported () =
  (* Same shape but 3 is 2's customer: the inherited class is customer,
     which IS exportable to peers. *)
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Peer, 1.0);
        (1, 2, Relationship.Sibling, 1.0);
        (2, 3, Relationship.Customer, 1.0) ]
  in
  let r = Solver.to_dest topo 3 in
  check_path_opt "0 -> 3 through sibling pair" (Some [ 0; 1; 2; 3 ])
    (Solver.path r 0)

(* --- Invariants on generated topologies --- *)

let all_paths topo =
  let n = Topology.num_nodes topo in
  let acc = ref [] in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    Solver.iter_reachable r (fun src ->
        if src <> dest then
          match Solver.path r src with
          | Some p -> acc := p :: !acc
          | None -> ())
  done;
  !acc

let test_generated_paths_valley_free () =
  let topo = random_as_topology ~seed:11 ~n:80 in
  List.iter
    (fun p ->
      if not (Valley_free.is_valley_free topo p) then
        Alcotest.failf "valley in %s" (Path.to_string p))
    (all_paths topo)

let test_generated_paths_loop_free () =
  let topo = random_as_topology ~seed:12 ~n:80 in
  List.iter
    (fun p ->
      if not (Path.is_loop_free p) then
        Alcotest.failf "loop in %s" (Path.to_string p))
    (all_paths topo)

let test_suffix_consistency () =
  (* Observation 1: the suffix of a selected path from its second node on
     is exactly that node's own selected path. *)
  let topo = random_as_topology ~seed:13 ~n:60 in
  let n = Topology.num_nodes topo in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    Solver.iter_reachable r (fun src ->
        if src <> dest then
          match Solver.path r src with
          | Some (_ :: (hop :: _ as suffix)) ->
            check_path_opt
              (Printf.sprintf "suffix of %d->%d at %d" src dest hop)
              (Some suffix) (Solver.path r hop)
          | Some _ | None -> ())
  done

let test_full_reachability_on_as_gen () =
  (* As_gen guarantees a provider chain to the Tier-1 clique, so the
     valley-free route set is complete. *)
  let topo = random_as_topology ~seed:14 ~n:100 in
  let n = Topology.num_nodes topo in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    for src = 0 to n - 1 do
      if not (Solver.reachable r src) then
        Alcotest.failf "%d cannot reach %d" src dest
    done
  done

let test_brite_annotated_reachability () =
  let topo = random_brite ~seed:15 ~n:100 ~m:2 in
  let n = Topology.num_nodes topo in
  let unreachable = ref 0 in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    for src = 0 to n - 1 do
      if src <> dest && not (Solver.reachable r src) then incr unreachable
    done
  done;
  (* Degree-tiering of a BA graph can orphan a few pairs (two stubs under
     the same low-tier provider chain); the bulk must be reachable. *)
  let total = n * (n - 1) in
  if !unreachable * 10 > total then
    Alcotest.failf "%d of %d pairs unreachable" !unreachable total

let test_shortest_within_class () =
  (* Within the same route class the solver must pick the shorter path:
     give A two customer routes to D of different lengths. *)
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Customer, 1.0);
        (0, 2, Relationship.Customer, 1.0);
        (1, 3, Relationship.Customer, 1.0);
        (2, 3, Relationship.Provider, 1.0) ]
      (* 3 is 1's customer; 3 is 2's provider. 0's customer-class options
         to reach 3: via 1 (length 2). Via 2 it would be a
         customer route of 0 but 2's route to its provider 3 is a
         provider route — not exportable to 2's provider 0. *)
  in
  let r = Solver.to_dest topo 3 in
  check_path_opt "0 -> 3" (Some [ 0; 1; 3 ]) (Solver.path r 0)

let test_customer_preferred_over_shorter_peer () =
  (* 0 has a direct peer route to 2 and a longer customer route via 1;
     the customer route must win despite being longer. *)
  let topo =
    Topology.create ~n:3
      [ (0, 2, Relationship.Peer, 1.0);
        (0, 1, Relationship.Customer, 1.0);
        (1, 2, Relationship.Customer, 1.0) ]
  in
  let r = Solver.to_dest topo 2 in
  check_path_opt "0 prefers the customer route" (Some [ 0; 1; 2 ])
    (Solver.path r 0);
  Alcotest.(check (option string))
    "class" (Some "customer-route")
    (Option.map Gao_rexford.class_to_string (Solver.class_of r 0))

(* The evaluation pipeline's hot path promises a warm workspace makes
   [to_dest_with] allocation-free: all three phases run over flat int
   arrays with epoch-stamped reset and no closures. Pin that with a
   [Gc.minor_words] delta — a reintroduced per-edge or per-hop
   allocation shows up as thousands of words per destination, so the
   < 1.0 budget has orders-of-magnitude slack in both directions. *)
let test_warm_workspace_allocation_free () =
  let n = 400 in
  let topo = random_as_topology ~seed:77 ~n in
  let ws = Solver.create_workspace () in
  (* Warm pass: sizes the arrays and faults in every code path. *)
  for d = 0 to n - 1 do
    ignore (Solver.to_dest_with ws topo d)
  done;
  let m0 = Gc.minor_words () in
  for d = 0 to n - 1 do
    ignore (Solver.to_dest_with ws topo d)
  done;
  let per_dest = (Gc.minor_words () -. m0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per destination (budget 1.0)" per_dest)
    true
    (per_dest < 1.0)

(* The same kind of pin for the Centaur node path: one fig6 kernel
   round (link 3 of the 60-node BRITE graph down, then up, each run to
   quiescence) on a warm network. Before the node path moved onto flat
   arenas it allocated 267,127 minor words per round, and 66,528 with
   them. Flat Permission Lists built at flush and one-hop re-derivation
   bring it to 53,492, and later node-path work to 36,335. Ranking each
   offer through a running best that keeps the leader's keys unboxed,
   and building only the winner's path, brings it to 30,547; exporting
   each route at the class stored beside it, instead of classifying its
   path again, to 30,465. Export builders that keep their links in two
   P-graphs (the current view and the wire copy) measure 29,300, and one
   absent form per value on the update path (the empty Permission List,
   a next hop of -1, the empty path) instead of an option, 28,772. The
   budget is 1.5x the newest figure, so a reintroduced per-destination
   table, per-flush rebuild, per-change list update, per-hop option or
   per-offer record fails it. *)
let test_centaur_flip_round_allocation () =
  let topo =
    Brite.annotated (Rng.create 8) ~n:60 ~m:2 ~max_delay:5.0 ~num_tiers:4
  in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let round () =
    ignore (runner.Sim.Runner.flip ~link_id:3 ~up:false);
    ignore (runner.Sim.Runner.flip ~link_id:3 ~up:true)
  in
  round ();
  let rounds = 10 in
  let m0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let per_round = (Gc.minor_words () -. m0) /. float_of_int rounds in
  let budget = 1.5 *. 28_772.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per flip round (budget %.0f)" per_round
       budget)
    true (per_round < budget)

(* And for what a converged Centaur network keeps: the words reachable
   from a cold-started runner on the 100-node default BRITE graph, after
   a full major collection. With occurrence-arena indexes (a usage chain
   per cached path, an occurrence chain per exported path) and slot
   arenas under hash indexes it held 3,014,060 words. One bit row per
   node over destinations, and node-indexed arrays for the derived
   cache and the export builders, bring it to 1,654,112; dropping the
   session P-graphs' out-edge chains, to 1,572,738. Node-indexed session
   graphs, builders that find a link through its child's in-link chain
   and byte-per-key dirty sets, with no hash table among them, bring it
   to 1,134,768. The budget is 1.25x that figure, so a reintroduced hash
   index or per-entry record fails it. Export builders that keep their
   links in two P-graphs (the current view and the wire copy) instead of
   one arena of their own hold 1,167,537. *)
let test_centaur_converged_state () =
  let topo =
    Experiments.Inputs.brite_sized Experiments.Config.default ~n:100
  in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr runner) in
  let budget = 1.25 *. 1_134_768.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words after cold start (budget %.0f)" words budget)
    true
    (float_of_int words < budget)

(* The same flip-round kernel for the baseline engines. A flip round
   allocated 49,419 minor words on BGP (238.0 messages), 510,734 on
   BGP-RCN (238.6) and 60,300 on OSPF (1,164), while BGP kept its RIBs in
   hash tables and built lists for every candidate, export and MRAI
   batch, BGP-RCN's purge built every RIB path's link list, and OSPF
   built lists for every flood. Half-edge RIB rows, a decision that walks
   the CSR slice and exports consed straight into the action list bring
   BGP to 13,838 and BGP-RCN to 14,094 (58 and 59 words per message);
   list-free floods bring OSPF to 24,796 (21 words per message), most of
   it the messages and the engine's share. Ranking candidates through a
   running best instead of a six-word record each brings BGP to 9,182
   and BGP-RCN to 9,485; updates that carry their path and root cause
   unboxed (the empty path withdraws, the failed link is one packed
   int), to 8,712 and 8,776. Each budget is 1.5x the newest figure, so
   a reintroduced per-candidate record or option, per-peer list or
   per-flood list fails it. *)
let flip_round_words make =
  let topo =
    Brite.annotated (Rng.create 8) ~n:60 ~m:2 ~max_delay:5.0 ~num_tiers:4
  in
  let runner : Sim.Runner.t = make topo in
  ignore (runner.cold_start ());
  let round () =
    ignore (runner.flip ~link_id:3 ~up:false);
    ignore (runner.flip ~link_id:3 ~up:true)
  in
  round ();
  let rounds = 10 in
  let m0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  (Gc.minor_words () -. m0) /. float_of_int rounds

let check_flip_round_budget make budget () =
  let per_round = flip_round_words make in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per flip round (budget %.0f)" per_round
       budget)
    true (per_round < budget)

let test_bgp_flip_round_allocation =
  check_flip_round_budget
    (fun topo -> Protocols.Bgp_net.network topo)
    (1.5 *. 8_712.0)

let test_bgp_rcn_flip_round_allocation =
  check_flip_round_budget
    (fun topo -> Protocols.Bgp_net.network ~rcn:true topo)
    (1.5 *. 8_776.0)

let test_ospf_flip_round_allocation =
  check_flip_round_budget
    (fun topo -> Protocols.Ospf_net.network topo)
    (1.5 *. 24_796.0)

(* And what the baselines keep after a cold start on the 100-node
   default BRITE graph. Hash-table RIBs held 315,369 words on BGP; RIB
   rows per half-edge and a Loc-RIB array per node, 188,419. BGP now
   holds 189,925: each Loc-RIB selection keeps the class it was
   selected with, one byte per destination. OSPF held 413,733 words
   with a hash-table outbox per node, and 411,552 with one flat outbox
   for the network (the LSDBs dominate). The budgets are 1.25x the
   flat-RIB and flat-outbox figures. *)
let check_converged_budget make budget () =
  let topo =
    Experiments.Inputs.brite_sized Experiments.Config.default ~n:100
  in
  let runner : Sim.Runner.t = make topo in
  ignore (runner.cold_start ());
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr runner) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words after cold start (budget %.0f)" words budget)
    true
    (float_of_int words < budget)

let test_bgp_converged_state =
  check_converged_budget
    (fun topo -> Protocols.Bgp_net.network topo)
    (1.25 *. 188_419.0)

let test_ospf_converged_state =
  check_converged_budget
    (fun topo -> Protocols.Ospf_net.network topo)
    (1.25 *. 411_552.0)

(* And for the engine's own share of an event: a warm 50-node ring in
   which each delivery forwards its message one hop on, until its hop
   count runs out. What a handler allocates (the message, the [Send] and
   its cons cell) is counted too. The closure-compared event heap and
   the per-delivery batch option cost 45.0 minor words per event; the
   flat (key, tie) heap and an event loop that allocates nothing of its
   own bring it to 22.0. The budget is 1.5x the latter, so a boxed
   queue entry, a per-event closure or option fails it. *)
type ring_msg = { hops : int }

let test_engine_event_allocation () =
  let n = 50 in
  let topo =
    Topology.create ~n
      (List.init n (fun i -> (i, (i + 1) mod n, Relationship.Peer, 1.0)))
  in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src:_ m ->
          if m.hops = 0 then []
          else [ Sim.Engine.Send ((node + 1) mod n, { hops = m.hops - 1 }) ]);
      on_link_change = (fun ~now:_ ~node:_ ~link_id:_ -> []);
      on_timer = Sim.Engine.no_timers;
      on_batch_end = Sim.Engine.no_batching }
  in
  let e = Sim.Engine.create topo ~units:(fun _ -> 1) ~handlers in
  let run () =
    for node = 0 to n - 1 do
      Sim.Engine.perform e ~node
        [ Sim.Engine.Send ((node + 1) mod n, { hops = 200 }) ]
    done;
    (Sim.Engine.run_to_quiescence e).Sim.Engine.events
  in
  ignore (run ());
  let m0 = Gc.minor_words () in
  let events = run () in
  let per_event = (Gc.minor_words () -. m0) /. float_of_int events in
  let budget = 1.5 *. 22.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event (budget %.1f)" per_event budget)
    true (per_event < budget)

let suite =
  [ Alcotest.test_case "figure2a routes to D" `Quick test_fig2_routes_to_d;
    Alcotest.test_case "figure2a route classes" `Quick test_fig2_route_classes;
    Alcotest.test_case "destination is origin" `Quick
      test_fig2_destination_is_origin;
    Alcotest.test_case "triangle peering" `Quick
      test_triangle_peering_no_transit;
    Alcotest.test_case "two-tier crosses peering once" `Quick
      test_two_tier_crosses_peering_once;
    Alcotest.test_case "line reachability" `Quick test_line_reachability;
    Alcotest.test_case "star leaves via provider" `Quick
      test_no_valley_through_stub;
    Alcotest.test_case "disconnected unreachable" `Quick
      test_disconnected_unreachable;
    Alcotest.test_case "peer route not exported to peer" `Quick
      test_peer_route_not_exported_to_peer;
    Alcotest.test_case "provider route not exported to peer" `Quick
      test_provider_route_not_exported_to_peer;
    Alcotest.test_case "sibling transparency" `Quick test_sibling_transparency;
    Alcotest.test_case "sibling customer route exported" `Quick
      test_sibling_customer_route_exported;
    Alcotest.test_case "generated paths valley-free" `Quick
      test_generated_paths_valley_free;
    Alcotest.test_case "generated paths loop-free" `Quick
      test_generated_paths_loop_free;
    Alcotest.test_case "suffix consistency (Observation 1)" `Quick
      test_suffix_consistency;
    Alcotest.test_case "full reachability on As_gen" `Quick
      test_full_reachability_on_as_gen;
    Alcotest.test_case "BRITE annotated reachability" `Quick
      test_brite_annotated_reachability;
    Alcotest.test_case "shortest within class" `Quick
      test_shortest_within_class;
    Alcotest.test_case "customer preferred over shorter peer" `Quick
      test_customer_preferred_over_shorter_peer;
    Alcotest.test_case "warm workspace is allocation-free" `Quick
      test_warm_workspace_allocation_free;
    Alcotest.test_case "centaur flip round allocation budget" `Quick
      test_centaur_flip_round_allocation;
    Alcotest.test_case "centaur converged state budget" `Quick
      test_centaur_converged_state;
    Alcotest.test_case "bgp flip round allocation budget" `Quick
      test_bgp_flip_round_allocation;
    Alcotest.test_case "bgp-rcn flip round allocation budget" `Quick
      test_bgp_rcn_flip_round_allocation;
    Alcotest.test_case "ospf flip round allocation budget" `Quick
      test_ospf_flip_round_allocation;
    Alcotest.test_case "bgp converged state budget" `Quick
      test_bgp_converged_state;
    Alcotest.test_case "ospf converged state budget" `Quick
      test_ospf_converged_state;
    Alcotest.test_case "engine event allocation budget" `Quick
      test_engine_event_allocation ]
