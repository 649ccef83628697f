(* P-graph operations: BuildGraph / DerivePath round-trips, Permission
   List placement, the paper's Figure 3 and Figure 4 walk-throughs, and
   delta/apply. *)

open Helpers
open Centaur

let data ?(plist = Permission_list.empty) counter = { Pgraph.counter; plist }

let test_empty_graph () =
  let g = Pgraph.create ~nodes:8 ~root:7 in
  Alcotest.(check int) "no links" 0 (Pgraph.num_links g);
  Alcotest.(check (list int)) "no dests" [] (Pgraph.dests g);
  check_path_opt "root derives itself" (Some [ 7 ]) (Pgraph.derive_path g ~dest:7);
  check_path_opt "unknown dest" None (Pgraph.derive_path g ~dest:3)

let test_single_path_roundtrip () =
  let g = Pgraph.of_paths ~root:0 [ [ 0; 1; 2; 3 ] ] in
  Alcotest.(check int) "three links" 3 (Pgraph.num_links g);
  Alcotest.(check int) "no permission lists" 0 (Pgraph.num_permission_lists g);
  check_path_opt "derive" (Some [ 0; 1; 2; 3 ]) (Pgraph.derive_path g ~dest:3)

let test_shared_prefix_no_plist () =
  (* Two paths sharing a prefix: no node is multi-homed, no PL needed,
     and the shared link is announced once (counter 2). *)
  let g = Pgraph.of_paths ~root:0 [ [ 0; 1; 2 ]; [ 0; 1; 3 ] ] in
  Alcotest.(check int) "three links" 3 (Pgraph.num_links g);
  Alcotest.(check int) "no PLs" 0 (Pgraph.num_permission_lists g);
  (match Pgraph.link_data g ~parent:0 ~child:1 with
  | Some d -> Alcotest.(check int) "shared link counter" 2 d.Pgraph.counter
  | None -> Alcotest.fail "missing link 0->1");
  check_path_opt "derive 2" (Some [ 0; 1; 2 ]) (Pgraph.derive_path g ~dest:2);
  check_path_opt "derive 3" (Some [ 0; 1; 3 ]) (Pgraph.derive_path g ~dest:3)

let test_multihomed_gets_plists () =
  (* Paths 0-1-3 and 0-2-3-4: node 3 is multi-homed, both in-links must
     carry Permission Lists, and derivation must disambiguate. *)
  let g = Pgraph.of_paths ~root:0 [ [ 0; 1; 3 ]; [ 0; 2; 3; 4 ] ] in
  Alcotest.(check int) "both in-links have PLs" 2
    (Pgraph.num_permission_lists g);
  check_path_opt "derive 3 via 1" (Some [ 0; 1; 3 ]) (Pgraph.derive_path g ~dest:3);
  check_path_opt "derive 4 via 2" (Some [ 0; 2; 3; 4 ])
    (Pgraph.derive_path g ~dest:4)

let test_figure4_scenario () =
  (* Paper Figure 4: C prefers <C,A,B,D> for D but uses <C,D,D'> for D'.
     With ids a=0 b=1 c=2 d=3 d'=4 and root C: D is multi-homed (parents
     B and C), so links B->D and C->D carry Permission Lists; the PL on
     C->D permits only (dest=D', next=D'). *)
  let c = Fixtures.c and a = Fixtures.a and b = Fixtures.b in
  let d = Fixtures.d and d' = Fixtures.d' in
  let g = Pgraph.of_paths ~root:c [ [ c; a; b; d ]; [ c; d; d' ] ] in
  Alcotest.(check int) "PLs on both in-links of D" 2
    (Pgraph.num_permission_lists g);
  (* The policy-violating path <C,D> must NOT be derivable. *)
  check_path_opt "derive D avoids the direct link" (Some [ c; a; b; d ])
    (Pgraph.derive_path g ~dest:d);
  check_path_opt "derive D' uses the direct link" (Some [ c; d; d' ])
    (Pgraph.derive_path g ~dest:d');
  (* Inspect the Permission List of C->D like the paper's Figure 4(c). *)
  match Pgraph.link_data g ~parent:c ~child:d with
  | None -> Alcotest.fail "missing link C->D"
  | Some { Pgraph.plist = pl; _ } ->
    if Permission_list.is_empty pl then Alcotest.fail "C->D lacks a PL";
    Alcotest.(check bool) "permits (D', next=D')" true
      (Permission_list.permit pl ~dest:d' ~next:d');
    Alcotest.(check bool) "forbids (D, next=self)" false
      (Permission_list.permit pl ~dest:d ~next:(-1))

let test_figure3_announcements () =
  (* Figure 3 walk-through: B's local P-graph on the Figure 2(a) diamond
     contains B's selected paths; deriving from it reconstructs exactly
     those paths. *)
  let topo = Fixtures.figure2a () in
  let b = Fixtures.b in
  let paths = Solver.path_set_from topo ~src:b in
  let g = Pgraph.of_paths ~root:b paths in
  List.iter
    (fun p ->
      let dest = Path.destination p in
      check_path_opt
        (Printf.sprintf "derive %d" dest)
        (Some p)
        (Pgraph.derive_path g ~dest))
    paths

let test_derive_exactly_selected_paths () =
  (* The §4.2 claim: exactly one policy-compliant path per destination is
     derivable, and it is the selected one. Random topology, every
     source. *)
  let topo = random_as_topology ~seed:21 ~n:50 in
  let n = Topology.num_nodes topo in
  for src = 0 to n - 1 do
    let paths = Solver.path_set_from topo ~src in
    let g = Pgraph.of_paths ~root:src paths in
    Alcotest.(check int)
      (Printf.sprintf "dests of %d" src)
      (List.length paths)
      (List.length (Pgraph.dests g));
    List.iter
      (fun p ->
        check_path_opt
          (Printf.sprintf "derive %d->%d" src (Path.destination p))
          (Some p)
          (Pgraph.derive_path g ~dest:(Path.destination p)))
      paths
  done

let test_counters_count_paths () =
  let topo = random_as_topology ~seed:22 ~n:40 in
  let src = 5 in
  let paths = Solver.path_set_from topo ~src in
  let g = Pgraph.of_paths ~root:src paths in
  List.iter
    (fun (parent, child, d) ->
      let expected =
        List.length
          (List.filter (fun p -> List.mem (parent, child) (path_links p)) paths)
      in
      Alcotest.(check int)
        (Printf.sprintf "counter %d->%d" parent child)
        expected d.Pgraph.counter)
    (Pgraph.links g)

let test_of_paths_validation () =
  let bad f = Alcotest.check_raises "invalid" (Invalid_argument f) in
  bad "Pgraph.of_paths: path does not start at root" (fun () ->
      ignore (Pgraph.of_paths ~root:0 [ [ 1; 2 ] ]));
  bad "Pgraph.of_paths: path too short" (fun () ->
      ignore (Pgraph.of_paths ~root:0 [ [ 0 ] ]));
  bad "Pgraph.of_paths: path has a loop" (fun () ->
      ignore (Pgraph.of_paths ~root:0 [ [ 0; 1; 2; 1; 3 ] ]));
  bad "Pgraph.of_paths: two paths for one destination" (fun () ->
      ignore (Pgraph.of_paths ~root:0 [ [ 0; 1; 2 ]; [ 0; 3; 2 ] ]));
  (* Checked before the graph is sized to its largest id. *)
  bad "Pgraph.of_paths: node id out of packed range" (fun () ->
      ignore (Pgraph.of_paths ~root:0 [ [ 0; Pgraph.max_node + 1 ] ]))

let test_diff_apply_roundtrip () =
  let topo = random_as_topology ~seed:23 ~n:40 in
  let old_ = Pgraph.of_paths ~root:3 (Solver.path_set_from topo ~src:3) in
  (* Perturb: drop one link's worth of paths by removing a destination,
     recompute, diff, apply. *)
  let link_id = 0 in
  let new_ =
    Topology.with_link_down topo link_id (fun () ->
        Pgraph.of_paths ~root:3 (Solver.path_set_from topo ~src:3))
  in
  let delta = Pgraph.diff ~old_ ~new_ in
  Pgraph.apply old_ delta;
  Alcotest.(check bool) "apply(diff) reproduces the new graph" true
    (Pgraph.equal old_ new_)

let test_diff_empty_on_equal () =
  let g = Pgraph.of_paths ~root:0 [ [ 0; 1; 2 ] ] in
  let delta = Pgraph.diff ~old_:g ~new_:g in
  Alcotest.(check bool) "no delta" true (Pgraph.delta_is_empty delta);
  Alcotest.(check int) "no units" 0 (Pgraph.delta_units delta)

let test_diff_detects_plist_change () =
  (* Same link set, different Permission List: must be re-announced. *)
  let pl1 = Permission_list.add Permission_list.empty ~dest:5 ~next:(-1) in
  let pl2 = Permission_list.add pl1 ~dest:6 ~next:7 in
  let g1 = Pgraph.create ~nodes:2 ~root:0 in
  Pgraph.add_link g1 ~parent:0 ~child:1 ~data:(data ~plist:pl1 1);
  let g2 = Pgraph.create ~nodes:2 ~root:0 in
  Pgraph.add_link g2 ~parent:0 ~child:1 ~data:(data ~plist:pl2 1);
  let delta = Pgraph.diff ~old_:g1 ~new_:g2 in
  Alcotest.(check int) "one re-announced link" 1
    (List.length delta.Pgraph.add_links)

let test_counters_ignored_by_diff_and_equal () =
  let g1 = Pgraph.create ~nodes:2 ~root:0 in
  Pgraph.add_link g1 ~parent:0 ~child:1 ~data:(data 1);
  let g2 = Pgraph.create ~nodes:2 ~root:0 in
  Pgraph.add_link g2 ~parent:0 ~child:1 ~data:(data 9);
  Alcotest.(check bool) "equal modulo counters" true (Pgraph.equal g1 g2);
  Alcotest.(check bool) "no delta modulo counters" true
    (Pgraph.delta_is_empty (Pgraph.diff ~old_:g1 ~new_:g2))

let test_in_degree_and_parents () =
  let g = Pgraph.of_paths ~root:0 [ [ 0; 1; 3 ]; [ 0; 2; 3; 4 ] ] in
  Alcotest.(check int) "in-degree of 3" 2 (Pgraph.in_degree g 3);
  Alcotest.(check (list int))
    "parents of 3" [ 1; 2 ]
    (List.map fst (Pgraph.parents_of g 3));
  Alcotest.(check (list int))
    "children of 0" [ 1; 2 ]
    (List.filter_map
       (fun (p, c, _) -> if p = 0 then Some c else None)
       (Pgraph.links g));
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3; 4 ] (Pgraph.nodes g)

(* The §4.3 use counters a builder keeps: a link enters the graph at
   its first use and leaves it when its counter reaches zero, keeping
   its Permission List in between. *)
let test_use_counts () =
  let g = Pgraph.create ~nodes:4 ~root:0 in
  Alcotest.(check int) "first use" 1 (Pgraph.add_use g ~parent:0 ~child:1);
  Alcotest.(check bool) "entered" true (Pgraph.mem_link g ~parent:0 ~child:1);
  let pl = Permission_list.add Permission_list.empty ~dest:1 ~next:(-1) in
  Pgraph.set_plist g ~parent:0 ~child:1 pl;
  Alcotest.(check int) "second use" 2 (Pgraph.add_use g ~parent:0 ~child:1);
  Alcotest.(check int) "one link" 1 (Pgraph.num_links g);
  Alcotest.(check int) "one use dropped" 1 (Pgraph.drop_use g ~parent:0 ~child:1);
  Alcotest.(check bool) "list kept" true
    (Permission_list.equal (Pgraph.plist g ~parent:0 ~child:1) pl);
  Alcotest.(check int) "last use dropped" 0 (Pgraph.drop_use g ~parent:0 ~child:1);
  Alcotest.(check bool) "left at zero" false (Pgraph.mem_link g ~parent:0 ~child:1);
  Alcotest.(check int) "no link" 0 (Pgraph.num_links g);
  Alcotest.(check int) "enters again, bare" 1 (Pgraph.add_use g ~parent:0 ~child:1);
  Alcotest.(check bool) "no list" true
    (Permission_list.is_empty (Pgraph.plist g ~parent:0 ~child:1))

let test_drop_absent_use () =
  let g = Pgraph.create ~nodes:4 ~root:0 in
  let not_in_use = Invalid_argument "Pgraph.drop_use: link not in use" in
  Alcotest.check_raises "absent link" not_in_use (fun () ->
      ignore (Pgraph.drop_use g ~parent:0 ~child:1));
  ignore (Pgraph.add_use g ~parent:0 ~child:1);
  ignore (Pgraph.drop_use g ~parent:0 ~child:1);
  Alcotest.check_raises "link that left" not_in_use (fun () ->
      ignore (Pgraph.drop_use g ~parent:0 ~child:1));
  Alcotest.check_raises "set_plist on an absent link"
    (Invalid_argument "Pgraph.set_plist: link absent") (fun () ->
      Pgraph.set_plist g ~parent:2 ~child:1 Permission_list.empty)

let test_iter_parents () =
  let g = Pgraph.of_paths ~root:0 [ [ 0; 1; 3 ]; [ 0; 2; 3; 4 ] ] in
  ignore (Pgraph.add_use g ~parent:4 ~child:3);
  let seen node =
    let acc = ref [] in
    Pgraph.iter_parents g node (fun p -> acc := p :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list int)) "parents of 3, once each" [ 1; 2; 4 ] (seen 3);
  Alcotest.(check (list int)) "parents of 4" [ 3 ] (seen 4);
  Alcotest.(check (list int)) "the root has none" [] (seen 0)

let test_derive_fails_on_unprotected_multihoming () =
  (* A multi-homed child whose in-links lack Permission Lists is not
     derivable — Observation 1 would be breached, so DerivePath refuses
     rather than guess. *)
  let g = Pgraph.create ~nodes:4 ~root:0 in
  Pgraph.add_link g ~parent:0 ~child:1 ~data:(data 1);
  Pgraph.add_link g ~parent:0 ~child:2 ~data:(data 1);
  Pgraph.add_link g ~parent:1 ~child:3 ~data:(data 1);
  Pgraph.add_link g ~parent:2 ~child:3 ~data:(data 1);
  Pgraph.mark_dest g 3;
  check_path_opt "underspecified multi-homing" None (Pgraph.derive_path g ~dest:3)

let suite =
  [ Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "single path roundtrip" `Quick
      test_single_path_roundtrip;
    Alcotest.test_case "shared prefix, no PL" `Quick
      test_shared_prefix_no_plist;
    Alcotest.test_case "multi-homed gets PLs" `Quick
      test_multihomed_gets_plists;
    Alcotest.test_case "figure 4 scenario" `Quick test_figure4_scenario;
    Alcotest.test_case "figure 3 announcements" `Quick
      test_figure3_announcements;
    Alcotest.test_case "derive = selected (random)" `Quick
      test_derive_exactly_selected_paths;
    Alcotest.test_case "counters count paths" `Quick test_counters_count_paths;
    Alcotest.test_case "of_paths validation" `Quick test_of_paths_validation;
    Alcotest.test_case "diff/apply roundtrip" `Quick test_diff_apply_roundtrip;
    Alcotest.test_case "diff empty on equal" `Quick test_diff_empty_on_equal;
    Alcotest.test_case "diff detects PL change" `Quick
      test_diff_detects_plist_change;
    Alcotest.test_case "counters ignored by diff/equal" `Quick
      test_counters_ignored_by_diff_and_equal;
    Alcotest.test_case "in-degree and parents" `Quick
      test_in_degree_and_parents;
    Alcotest.test_case "derive fails on unprotected multi-homing" `Quick
      test_derive_fails_on_unprotected_multihoming;
    Alcotest.test_case "use counts enter and leave" `Quick test_use_counts;
    Alcotest.test_case "dropping an absent use raises" `Quick
      test_drop_absent_use;
    Alcotest.test_case "parents visitor" `Quick test_iter_parents ]
