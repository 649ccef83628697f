(* Topology generators: structural invariants of the BRITE models and
   the synthetic AS Internet, fixture sanity, determinism. *)

let test_ba_structure () =
  let rng = Rng.create 1 in
  let edges = Brite.barabasi_albert rng ~n:100 ~m:2 ~max_delay:5.0 in
  (* Seed clique of 3 nodes (3 links) + 97 nodes x 2 links. *)
  Alcotest.(check int) "edge count" (3 + (97 * 2)) (List.length edges);
  List.iter
    (fun (a, b, d) ->
      if a = b then Alcotest.fail "self loop";
      if d < 0.0 || d > 5.0 then Alcotest.failf "delay out of range: %f" d)
    edges

let test_ba_connected () =
  let rng = Rng.create 2 in
  let edges = Brite.barabasi_albert rng ~n:200 ~m:2 ~max_delay:5.0 in
  let topo =
    Topology.create ~n:200
      (List.map (fun (a, b, d) -> (a, b, Relationship.Peer, d)) edges)
  in
  Alcotest.(check bool) "connected" true (Topology.is_connected topo)

let test_ba_power_law_ish () =
  (* Preferential attachment: the max degree should far exceed the mean. *)
  let rng = Rng.create 3 in
  let edges = Brite.barabasi_albert rng ~n:400 ~m:2 ~max_delay:5.0 in
  let deg = Array.make 400 0 in
  List.iter
    (fun (a, b, _) ->
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1)
    edges;
  let max_deg = Array.fold_left max 0 deg in
  let mean = 2.0 *. float_of_int (List.length edges) /. 400.0 in
  Alcotest.(check bool) "hub exists" true (float_of_int max_deg > 5.0 *. mean)

let test_ba_validation () =
  Alcotest.check_raises "m too small"
    (Invalid_argument "Brite.barabasi_albert: m < 1") (fun () ->
      ignore (Brite.barabasi_albert (Rng.create 1) ~n:10 ~m:0 ~max_delay:1.0));
  Alcotest.check_raises "n too small"
    (Invalid_argument "Brite.barabasi_albert: n < m + 1") (fun () ->
      ignore (Brite.barabasi_albert (Rng.create 1) ~n:2 ~m:2 ~max_delay:1.0))

let test_ba_determinism () =
  let gen () = Brite.barabasi_albert (Rng.create 42) ~n:50 ~m:2 ~max_delay:5.0 in
  Alcotest.(check bool) "same seed, same graph" true (gen () = gen ())

let test_annotated_has_three_roles () =
  let topo =
    Brite.annotated (Rng.create 6) ~n:300 ~m:2 ~max_delay:5.0 ~num_tiers:4
  in
  let c = Topology.relationship_counts topo in
  Alcotest.(check bool) "mostly provider links" true
    (c.Topology.provider_customer > (9 * Topology.num_links topo) / 10);
  Alcotest.(check bool) "some tier-1 peering" true (c.Topology.peering >= 1)

let check_as_gen_fractions name params expect_peer =
  let topo = As_gen.generate (Rng.create 7) params in
  Alcotest.(check bool) (name ^ " connected") true (Topology.is_connected topo);
  let c = Topology.relationship_counts topo in
  let total = float_of_int (Topology.num_links topo) in
  let peer_frac = float_of_int c.Topology.peering /. total in
  if abs_float (peer_frac -. expect_peer) > 0.04 then
    Alcotest.failf "%s peering fraction %.3f (target %.3f)" name peer_frac
      expect_peer

let test_as_gen_caida_mix () =
  check_as_gen_fractions "caida" (As_gen.caida_like ~n:800) 0.076

let test_as_gen_hetop_mix () =
  check_as_gen_fractions "hetop" (As_gen.hetop_like ~n:800) 0.3526

let test_as_gen_provider_dag_acyclic () =
  (* Providers always have smaller ids: check every provider link points
     to a smaller id. *)
  let topo = As_gen.generate (Rng.create 8) (As_gen.caida_like ~n:300) in
  Topology.iter_links topo (fun l ->
      match l.Topology.rel_ab with
      | Relationship.Provider ->
        (* b is a's provider: b must be older (smaller id). *)
        if l.Topology.b >= l.Topology.a then
          Alcotest.failf "provider edge upward: %d -> %d" l.Topology.a
            l.Topology.b
      | Relationship.Customer ->
        if l.Topology.a >= l.Topology.b then
          Alcotest.failf "provider edge upward: %d -> %d" l.Topology.b
            l.Topology.a
      | Relationship.Peer | Relationship.Sibling -> ())

let test_as_gen_validation () =
  Alcotest.check_raises "tier1 too small"
    (Invalid_argument "As_gen.generate: tier1 < 2") (fun () ->
      ignore
        (As_gen.generate (Rng.create 1)
           { (As_gen.caida_like ~n:100) with As_gen.tier1 = 1 }))

let test_fixture_shapes () =
  let diamond = Fixtures.multihomed_diamond () in
  Alcotest.(check int) "diamond nodes" 5 (Topology.num_nodes diamond);
  Alcotest.(check int) "diamond links" 5 (Topology.num_links diamond);
  let line = Fixtures.line 4 in
  Alcotest.(check int) "line links" 3 (Topology.num_links line);
  let star = Fixtures.star 6 in
  Alcotest.(check int) "star center degree" 5 (Topology.degree star 0);
  Alcotest.check_raises "line validation"
    (Invalid_argument "Fixtures.line: n < 2") (fun () ->
      ignore (Fixtures.line 1))

let suite =
  [ Alcotest.test_case "BA structure" `Quick test_ba_structure;
    Alcotest.test_case "BA connected" `Quick test_ba_connected;
    Alcotest.test_case "BA power-law-ish" `Quick test_ba_power_law_ish;
    Alcotest.test_case "BA validation" `Quick test_ba_validation;
    Alcotest.test_case "BA determinism" `Quick test_ba_determinism;
    Alcotest.test_case "annotated roles" `Quick test_annotated_has_three_roles;
    Alcotest.test_case "As_gen caida mix" `Quick test_as_gen_caida_mix;
    Alcotest.test_case "As_gen hetop mix" `Quick test_as_gen_hetop_mix;
    Alcotest.test_case "As_gen provider DAG" `Quick
      test_as_gen_provider_dag_acyclic;
    Alcotest.test_case "As_gen validation" `Quick test_as_gen_validation;
    Alcotest.test_case "fixture shapes" `Quick test_fixture_shapes ]
