(* Static whole-topology analysis (Tables 4/5, Figure 5) and the
   experiments plumbing. *)

open Helpers

let test_pgraph_of_source () =
  let topo = Fixtures.figure2a () in
  let g = Centaur.Static.pgraph_of_source topo ~src:Fixtures.a in
  Alcotest.(check int) "three dests" 3
    (List.length (Centaur.Pgraph.dests g));
  check_path_opt "A->D in graph"
    (Some [ Fixtures.a; Fixtures.b; Fixtures.d ])
    (Centaur.Pgraph.derive_path g ~dest:Fixtures.d)

let test_analyze_counts () =
  let topo = random_as_topology ~seed:61 ~n:80 in
  let sources = [ 0; 7; 33 ] in
  let stats = Centaur.Static.analyze topo ~sources in
  Alcotest.(check int) "sources" 3 stats.Centaur.Static.num_sources;
  (* Each P-graph reaches the 79 other nodes: at least 79 links. *)
  Alcotest.(check bool) "links >= dests" true
    (stats.Centaur.Static.avg_links >= 79.0);
  Alcotest.(check bool) "plists <= links" true
    (stats.Centaur.Static.avg_plists <= stats.Centaur.Static.avg_links);
  let d = stats.Centaur.Static.entry_dist in
  let total =
    d.Centaur.Static.one + d.Centaur.Static.two + d.Centaur.Static.three
    + d.Centaur.Static.more
  in
  (* Histogram covers every Permission List of every sampled P-graph. *)
  let expected =
    int_of_float (stats.Centaur.Static.avg_plists *. 3.0 +. 0.5)
  in
  Alcotest.(check int) "histogram population" expected total

let test_analyze_matches_direct_build () =
  let topo = random_as_topology ~seed:62 ~n:50 in
  let src = 9 in
  let stats = Centaur.Static.analyze topo ~sources:[ src ] in
  let g = Centaur.Static.pgraph_of_source topo ~src in
  Alcotest.(check (float 1e-9))
    "avg links = single graph links"
    (float_of_int (Centaur.Pgraph.num_links g))
    stats.Centaur.Static.avg_links;
  Alcotest.(check (float 1e-9))
    "avg plists = single graph plists"
    (float_of_int (Centaur.Pgraph.num_permission_lists g))
    stats.Centaur.Static.avg_plists

let test_analyze_empty_sources () =
  let topo = Fixtures.figure2a () in
  Alcotest.check_raises "empty sources"
    (Invalid_argument "Static.analyze: empty source list") (fun () ->
      ignore (Centaur.Static.analyze topo ~sources:[]))

let test_immediate_overhead_diamond () =
  let topo = Fixtures.figure2a () in
  let overheads = Centaur.Static.immediate_overhead topo in
  Alcotest.(check int) "one entry per link" 4 (Array.length overheads);
  Array.iter
    (fun o ->
      (* Every link carries someone's route in the diamond, so both
         protocols react to every failure... *)
      Alcotest.(check bool) "bgp >= centaur" true
        (o.Centaur.Static.bgp_units >= o.Centaur.Static.centaur_units))
    overheads

let test_immediate_overhead_star () =
  (* Star with center 0: when leaf link (0, k) fails, the center loses
     its route to k (advertised to the other n-2 leaves) and the leaf
     loses routes to everyone. *)
  let n = 6 in
  let topo = Fixtures.star n in
  let overheads = Centaur.Static.immediate_overhead topo in
  Array.iter
    (fun o ->
      (* Center withdraws dest k to n-2 other leaves; leaf k withdraws
         its n-2 remote routes to nobody (no other neighbors) -> BGP =
         n-2 = 4. *)
      Alcotest.(check int) "bgp withdrawals" (n - 2)
        o.Centaur.Static.bgp_units;
      (* Centaur: center withdraws one link to n-2 leaves?? No - the
         failed link is announced to the other leaves as part of their
         paths, so one link withdrawal per session that saw it. *)
      Alcotest.(check int) "centaur withdrawals" (n - 2)
        o.Centaur.Static.centaur_units)
    overheads

let test_immediate_overhead_bgp_scales_with_dests () =
  (* On a line, the failure of the last link makes every upstream... only
     the adjacent node reacts immediately: node n-2 withdraws dest n-1
     toward n-3. On a long line BGP's immediate cost stays small, but
     failing the FIRST link cuts node 0 off from n-2 dests: node 1..
     actually node 1 withdraws its single dest-0 route to node 2? No:
     node 1's route to 0 uses the failed link and was advertised to 2;
     node 0's routes to everyone used it but have no other session. *)
  let topo = Fixtures.line 10 in
  let overheads = Centaur.Static.immediate_overhead topo in
  (* Failure of link (0,1): node 1 advertised dest 0 to node 2 -> one
     withdrawal; node 0 has no other neighbor -> 0. Centaur: same single
     session sees the link. *)
  let o = overheads.(0) in
  Alcotest.(check int) "bgp first link" 1 o.Centaur.Static.bgp_units;
  Alcotest.(check int) "centaur first link" 1 o.Centaur.Static.centaur_units;
  (* A middle link (4,5): node 4 withdraws dests 5..9 (5 of them) to node
     3; node 5 withdraws dests 0..4 (5) to node 6. BGP = 10 units.
     Centaur: one link withdrawal on each side = 2. *)
  let o = overheads.(4) in
  Alcotest.(check int) "bgp middle link" 10 o.Centaur.Static.bgp_units;
  Alcotest.(check int) "centaur middle link" 2 o.Centaur.Static.centaur_units

let test_immediate_overhead_matches_simulation_first_wave () =
  (* The static model's Centaur unit count for a link must equal the
     link-withdrawal units the simulator's first wave sends. We check the
     centaur side on the diamond by flipping each link. *)
  let topo = Fixtures.figure2a () in
  let overheads = Centaur.Static.immediate_overhead topo in
  Array.iteri
    (fun link_id o ->
      let sim_topo = Fixtures.figure2a () in
      let runner = Protocols.Bgp_net.network ~mrai:0.0 sim_topo in
      ignore (runner.Sim.Runner.cold_start ());
      let stats = runner.Sim.Runner.flip ~link_id ~up:false in
      (* The simulator cascades, so it sends at least the first wave. *)
      if stats.Sim.Engine.units < o.Centaur.Static.bgp_units then
        Alcotest.failf "sim sent %d < static first wave %d"
          stats.Sim.Engine.units o.Centaur.Static.bgp_units)
    overheads

let test_fig5_ratio_grows_with_size () =
  let ratio n =
    let topo = random_as_topology ~seed:63 ~n in
    let overheads = Centaur.Static.immediate_overhead topo in
    let bgp = Array.fold_left (fun acc o -> acc + o.Centaur.Static.bgp_units) 0 overheads in
    let cen =
      Array.fold_left (fun acc o -> acc + o.Centaur.Static.centaur_units) 0 overheads
    in
    float_of_int bgp /. float_of_int (max cen 1)
  in
  let small = ratio 50 and large = ratio 300 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio grows (%.1f -> %.1f)" small large)
    true (large > small)

(* The domain pool must be invisible in the results: every Static entry
   point forced to 1 domain (the exact sequential code path) and run on
   a multi-domain pool must produce structurally equal stats. *)
let parallel_matches_sequential_qcheck =
  QCheck.Test.make ~name:"static analysis: multi-domain = sequential"
    ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 20 60))
    (fun (seed, n) ->
      let topo = random_as_topology ~seed ~n in
      let sources = [ 0; n / 3; n - 1 ] in
      let both f = (Pool.with_size 1 f, Pool.with_size 3 f) in
      let seq_std, par_std =
        both (fun () -> Centaur.Static.analyze topo ~sources)
      in
      let seq_arb, par_arb =
        both (fun () ->
            Centaur.Static.analyze ~discipline:Gao_rexford.Arbitrary topo
              ~sources)
      in
      let seq_vf, par_vf =
        both (fun () -> Centaur.Static.analyze_vf topo ~sources)
      in
      let seq_ov, par_ov =
        both (fun () -> Centaur.Static.immediate_overhead topo)
      in
      seq_std = par_std && seq_arb = par_arb && seq_vf = par_vf
      && seq_ov = par_ov)

(* The streamed per-source-sharded analyze must be indistinguishable —
   floats included — from the oracle that materializes every per-source
   path bag and builds complete reference P-graphs. All four
   disciplines, since only Standard takes the allocation-free
   next-hop-chain walk. *)
let streamed_matches_materialized_qcheck =
  QCheck.Test.make ~name:"static analysis: streamed = materialized" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 20 70))
    (fun (seed, n) ->
      let topo = random_as_topology ~seed ~n in
      let sources = List.sort_uniq compare [ 0; n / 4; n / 2; n - 1 ] in
      List.for_all
        (fun d ->
          Centaur.Static.analyze ~discipline:d topo ~sources
          = Oracle.analyze_materialized ~discipline:d topo ~sources)
        Gao_rexford.[ Standard; Class_only; Diverse; Arbitrary ])

(* Same law for the valley-free path sets, which [analyze_vf] streams
   path by path. *)
let streamed_matches_materialized_vf_qcheck =
  QCheck.Test.make ~name:"static analysis: streamed = materialized (vf)"
    ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 20 70))
    (fun (seed, n) ->
      let topo = random_as_topology ~seed ~n in
      let sources = List.sort_uniq compare [ 0; n / 4; n / 2; n - 1 ] in
      Centaur.Static.analyze_vf topo ~sources
      = Oracle.analyze_vf_materialized topo ~sources)

(* Same law under random compiled policies (the slow [Stable.to_dest]
   selection path): the destination-batched streamed analyze, the
   materialized reference, and a 3-domain run must all agree byte for
   byte. Reuses the policy-DSL generator; configs the validator rejects
   are vacuously fine. *)
let streamed_matches_materialized_policy_qcheck =
  QCheck.Test.make
    ~name:"static analysis: streamed = materialized under random policy"
    ~count:6
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 1000) Test_policy_dsl.gen_config))
    (fun (seed, config) ->
      match Policy.compile ~num_nodes:16 config with
      | Error _ -> true
      | Ok policy ->
        let topo = random_as_topology ~seed ~n:16 in
        let sources = [ 0; 5; 11; 15 ] in
        List.for_all
          (fun d ->
            let streamed =
              Centaur.Static.analyze ~discipline:d ~policy topo ~sources
            in
            streamed
            = Oracle.analyze_materialized ~discipline:d ~policy topo ~sources
            && Pool.with_size 3 (fun () ->
                   Centaur.Static.analyze ~discipline:d ~policy topo ~sources)
               = streamed)
          Gao_rexford.[ Standard; Class_only; Diverse; Arbitrary ])

let suite =
  [ Alcotest.test_case "pgraph of source" `Quick test_pgraph_of_source;
    Alcotest.test_case "analyze counts" `Quick test_analyze_counts;
    Alcotest.test_case "analyze matches direct build" `Quick
      test_analyze_matches_direct_build;
    Alcotest.test_case "analyze empty sources" `Quick
      test_analyze_empty_sources;
    Alcotest.test_case "immediate overhead diamond" `Quick
      test_immediate_overhead_diamond;
    Alcotest.test_case "immediate overhead star" `Quick
      test_immediate_overhead_star;
    Alcotest.test_case "immediate overhead line" `Quick
      test_immediate_overhead_bgp_scales_with_dests;
    Alcotest.test_case "static first wave <= simulation" `Quick
      test_immediate_overhead_matches_simulation_first_wave;
    Alcotest.test_case "fig5 ratio grows with size" `Quick
      test_fig5_ratio_grows_with_size;
    QCheck_alcotest.to_alcotest parallel_matches_sequential_qcheck;
    QCheck_alcotest.to_alcotest streamed_matches_materialized_qcheck;
    QCheck_alcotest.to_alcotest streamed_matches_materialized_policy_qcheck;
    QCheck_alcotest.to_alcotest streamed_matches_materialized_vf_qcheck ]
