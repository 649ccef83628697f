(* Multi-path Centaur (paper §7): k-best selection validity, multi-path
   P-graph round trips, and the compactness measurement. *)

open Helpers

(* Up to [k] routes of [src] toward [dest], most preferred first. *)
let k_best topo ~k ~src ~dest =
  List.filteri
    (fun i _ -> i < k)
    (Multipath.ranked_candidates topo (Solver.to_dest topo dest) ~src)

(* One source's k-best routes to every destination, as the ablation
   announces them. *)
let path_set topo ~k ~src =
  List.concat
    (Hashtbl.find (Multipath.ranked_sets topo ~kmax:k ~sources:[ src ]) src)

let test_k_best_basics () =
  let topo = Fixtures.figure2a () in
  (* A reaches D via B and via C: two valid customer routes. *)
  let paths = k_best topo ~k:3 ~src:Fixtures.a ~dest:Fixtures.d in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  check_path "best first" [ Fixtures.a; Fixtures.b; Fixtures.d ] (List.nth paths 0);
  check_path "alternate" [ Fixtures.a; Fixtures.c; Fixtures.d ] (List.nth paths 1)

let test_k_best_k1_matches_solver () =
  let topo = random_as_topology ~seed:101 ~n:40 in
  for dest = 0 to 39 do
    let r = Solver.to_dest topo dest in
    for src = 0 to 39 do
      if src <> dest then
        check_path_opt
          (Printf.sprintf "k=1 %d->%d" src dest)
          (Solver.path r src)
          (match k_best topo ~k:1 ~src ~dest with
          | [ p ] -> Some p
          | [] -> None
          | _ -> Alcotest.fail "k=1 returned several")
    done
  done

let test_k_best_properties () =
  let topo = random_as_topology ~seed:102 ~n:50 in
  let checked = ref 0 in
  for dest = 0 to 49 do
    for src = 0 to 49 do
      if src <> dest then begin
        let paths = k_best topo ~k:3 ~src ~dest in
        incr checked;
        (* Distinct, loop-free, valley-free, distinct next hops. *)
        let next_hops = List.filter_map (fun p -> List.nth_opt p 1) paths in
        if List.sort_uniq compare next_hops <> List.sort compare next_hops
        then Alcotest.fail "duplicate next hops";
        List.iter
          (fun p ->
            if not (Path.is_loop_free p) then Alcotest.fail "loop";
            if not (Valley_free.is_valley_free topo p) then
              Alcotest.failf "valley in %s" (Path.to_string p))
          paths
      end
    done
  done;
  Alcotest.(check bool) "exercised" true (!checked > 0)

let test_k_best_nested () =
  (* k-best lists are prefixes of each other. *)
  let topo = random_as_topology ~seed:103 ~n:30 in
  for dest = 0 to 29 do
    let p3 = k_best topo ~k:3 ~src:7 ~dest in
    let p1 = k_best topo ~k:1 ~src:7 ~dest in
    match (p1, p3) with
    | [], [] -> ()
    | [ best ], best' :: _ -> check_path "prefix" best best'
    | _ -> Alcotest.fail "inconsistent k-best"
  done

let test_of_multipaths_roundtrip () =
  let topo = random_as_topology ~seed:104 ~n:40 in
  let src = 9 in
  let paths = path_set topo ~k:2 ~src in
  let g = Centaur.Pgraph.of_multipaths ~root:src paths in
  (* Every announced path must be derivable. *)
  let module Pset = Set.Make (struct
    type t = Path.t

    let compare = Path.compare
  end) in
  List.iter
    (fun p ->
      let derived =
        Pset.of_list
          (Centaur.Pgraph.derive_paths ~limit:256 g
             ~dest:(Path.destination p))
      in
      if not (Pset.mem p derived) then
        Alcotest.failf "announced path not derivable: %s" (Path.to_string p))
    paths;
  (* And nothing outside the per-dest-next closure: derived count per dest
     is bounded below by announced count. *)
  List.iter
    (fun d ->
      let announced =
        List.length (List.filter (fun p -> Path.destination p = d) paths)
      in
      let derived = List.length (Centaur.Pgraph.derive_paths ~limit:256 g ~dest:d) in
      if derived < announced then
        Alcotest.failf "lost paths for %d: %d < %d" d derived announced)
    (Centaur.Pgraph.dests g)

let test_derive_paths_single_graph () =
  (* On a single-path graph, derive_paths is the derive_path singleton. *)
  let g = Centaur.Pgraph.of_paths ~root:0 [ [ 0; 1; 3 ]; [ 0; 2; 3; 4 ] ] in
  Alcotest.(check int) "one path for 3" 1
    (List.length (Centaur.Pgraph.derive_paths g ~dest:3));
  Alcotest.(check int) "one path for 4" 1
    (List.length (Centaur.Pgraph.derive_paths g ~dest:4))

let test_derive_paths_two_for_dest () =
  let g =
    Centaur.Pgraph.of_multipaths ~root:0 [ [ 0; 1; 3 ]; [ 0; 2; 3 ] ]
  in
  let paths = Centaur.Pgraph.derive_paths g ~dest:3 in
  Alcotest.(check int) "both alternates derivable" 2 (List.length paths)

let test_duplicate_paths_collapse () =
  let g =
    Centaur.Pgraph.of_multipaths ~root:0 [ [ 0; 1; 2 ]; [ 0; 1; 2 ] ]
  in
  Alcotest.(check int) "two links only" 2 (Centaur.Pgraph.num_links g);
  Alcotest.(check int) "one derived" 1
    (List.length (Centaur.Pgraph.derive_paths g ~dest:2))

let test_compaction_reports () =
  let topo = random_as_topology ~seed:105 ~n:60 in
  let ranked = Multipath.ranked_sets topo ~kmax:2 ~sources:[ 5 ] in
  let r1 = Centaur.Multipath_eval.of_ranked ranked ~k:1 in
  let r2 = Centaur.Multipath_eval.of_ranked ranked ~k:2 in
  Alcotest.(check bool) "k=2 announces more paths" true
    (r2.Centaur.Multipath_eval.paths > r1.Centaur.Multipath_eval.paths);
  Alcotest.(check bool) "compaction beats path vector" true
    (r2.Centaur.Multipath_eval.compaction > 1.0);
  Alcotest.(check bool) "no lost paths" true
    (r2.Centaur.Multipath_eval.derived_paths
    >= r2.Centaur.Multipath_eval.paths);
  (* k=2's marginal cost in links is small: most alternate-path links are
     already in the k=1 graph. *)
  Alcotest.(check bool) "link growth sublinear" true
    (r2.Centaur.Multipath_eval.centaur_links
    < 2 * r1.Centaur.Multipath_eval.centaur_links)

let test_k_validation () =
  let topo = Fixtures.figure2a () in
  Alcotest.check_raises "k=0" (Invalid_argument "Multipath.ranked_sets: kmax < 1")
    (fun () -> ignore (Multipath.ranked_sets topo ~kmax:0 ~sources:[ 0 ]))

let suite =
  [ Alcotest.test_case "k-best basics" `Quick test_k_best_basics;
    Alcotest.test_case "k=1 matches solver" `Quick
      test_k_best_k1_matches_solver;
    Alcotest.test_case "k-best properties" `Quick test_k_best_properties;
    Alcotest.test_case "k-best nested" `Quick test_k_best_nested;
    Alcotest.test_case "of_multipaths roundtrip" `Quick
      test_of_multipaths_roundtrip;
    Alcotest.test_case "derive_paths on single graph" `Quick
      test_derive_paths_single_graph;
    Alcotest.test_case "derive_paths two alternates" `Quick
      test_derive_paths_two_for_dest;
    Alcotest.test_case "duplicate paths collapse" `Quick
      test_duplicate_paths_collapse;
    Alcotest.test_case "compaction reports" `Quick test_compaction_reports;
    Alcotest.test_case "k validation" `Quick test_k_validation ]
