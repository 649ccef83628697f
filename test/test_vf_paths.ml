(* Per-pair shortest valley-free paths: validity, minimality against a
   brute-force oracle, and P-graph round-trips on the resulting
   (suffix-inconsistent) path sets. *)

open Helpers

(* Brute force: shortest valley-free distance by exhaustive DFS over
   simple paths (tiny graphs only). *)
let brute_force_dist topo ~src ~dest =
  let best = ref max_int in
  let n = Topology.num_nodes topo in
  let rec go path current len =
    if len < !best then
      if current = dest then best := len
      else if len < n then
        Topology.iter_neighbors topo current (fun next _ _ ->
            if not (List.mem next path) then begin
              let candidate = List.rev (next :: List.rev path) in
              if Valley_free.is_valley_free topo candidate then
                go candidate next (len + 1)
            end)
  in
  go [ src ] src 0;
  if !best = max_int then None else Some !best

let test_fig2_paths () =
  let topo = Fixtures.figure2a () in
  let r = Vf_paths.from_source topo ~src:Fixtures.a in
  check_path_opt "A->D"
    (Some [ Fixtures.a; Fixtures.b; Fixtures.d ])
    (Vf_paths.path r Fixtures.d);
  check_path_opt "self" (Some [ Fixtures.a ]) (Vf_paths.path r Fixtures.a)

let test_paths_are_valley_free () =
  let topo = random_as_topology ~seed:81 ~n:60 in
  for src = 0 to 59 do
    let r = Vf_paths.from_source topo ~src in
    List.iter
      (fun p ->
        if not (Valley_free.is_valley_free topo p) then
          Alcotest.failf "valley in %s" (Path.to_string p);
        if not (Path.is_loop_free p) then
          Alcotest.failf "loop in %s" (Path.to_string p))
      (Vf_paths.path_set r)
  done

let test_minimality_against_brute_force () =
  let topo = random_as_topology ~seed:82 ~n:14 in
  for src = 0 to 13 do
    let r = Vf_paths.from_source topo ~src in
    for dest = 0 to 13 do
      if dest <> src then begin
        let expected = brute_force_dist topo ~src ~dest in
        let got = Option.map Path.length (Vf_paths.path r dest) in
        Alcotest.(check (option int))
          (Printf.sprintf "dist %d->%d" src dest)
          expected got
      end
    done
  done

let test_vf_can_beat_policy_selection () =
  (* The vf-shortest path ignores route selection, so it can be shorter
     than the BGP-stable path (which prefers customer routes even when
     longer). Same fixture as the preference test. *)
  let topo =
    Topology.create ~n:3
      [ (0, 2, Relationship.Peer, 1.0);
        (0, 1, Relationship.Customer, 1.0);
        (1, 2, Relationship.Customer, 1.0) ]
  in
  let r = Vf_paths.from_source topo ~src:0 in
  check_path_opt "direct peering wins on hops" (Some [ 0; 2 ])
    (Vf_paths.path r 2);
  let solver = Solver.to_dest topo 2 in
  check_path_opt "policy selection takes the customer detour"
    (Some [ 0; 1; 2 ]) (Solver.path solver 0)

let test_pgraph_roundtrip_on_vf_sets () =
  (* Suffix-inconsistent path sets are exactly what Permission Lists are
     for: BuildGraph + DerivePath must still round-trip. *)
  let topo = random_as_topology ~seed:83 ~n:70 in
  List.iter
    (fun src ->
      let r = Vf_paths.from_source topo ~src in
      let paths = Vf_paths.path_set r in
      let g = Centaur.Pgraph.of_paths ~root:src paths in
      List.iter
        (fun p ->
          check_path_opt
            (Printf.sprintf "derive %d->%d" src (Path.destination p))
            (Some p)
            (Centaur.Pgraph.derive_path g ~dest:(Path.destination p)))
        paths)
    [ 0; 13; 42; 69 ]

let test_reachability_matches_solver () =
  (* A valley-free path exists iff the policy routing reaches — both are
     "exists a compliant path" on this topology family. *)
  let topo = random_as_topology ~seed:84 ~n:50 in
  for src = 0 to 49 do
    let r = Vf_paths.from_source topo ~src in
    for dest = 0 to 49 do
      if dest <> src then
        let solver = Solver.to_dest topo dest in
        Alcotest.(check bool)
          (Printf.sprintf "reach %d->%d" src dest)
          (Solver.reachable solver src)
          (Vf_paths.reachable r dest)
    done
  done

let suite =
  [ Alcotest.test_case "fig2 paths" `Quick test_fig2_paths;
    Alcotest.test_case "paths valley-free" `Quick test_paths_are_valley_free;
    Alcotest.test_case "minimality (brute force)" `Quick
      test_minimality_against_brute_force;
    Alcotest.test_case "vf can beat policy selection" `Quick
      test_vf_can_beat_policy_selection;
    Alcotest.test_case "pgraph roundtrip on vf sets" `Quick
      test_pgraph_roundtrip_on_vf_sets;
    Alcotest.test_case "reachability matches solver" `Quick
      test_reachability_matches_solver ]
