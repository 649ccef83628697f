(* Network model: relationships, paths, topology structure, tier
   inference, serialization round-trips. *)

open Helpers

let test_relationship_invert () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "involution" true
        (Relationship.equal r (Relationship.invert (Relationship.invert r))))
    Relationship.all;
  Alcotest.(check bool) "customer<->provider" true
    (Relationship.equal Relationship.Provider
       (Relationship.invert Relationship.Customer))

let test_relationship_strings () =
  List.iter
    (fun r ->
      match Relationship.of_string (Relationship.to_string r) with
      | Some r' ->
        Alcotest.(check bool) "roundtrip" true (Relationship.equal r r')
      | None -> Alcotest.fail "of_string failed")
    Relationship.all;
  Alcotest.(check bool) "unknown" true (Relationship.of_string "xyz" = None)

let test_path_accessors () =
  let p = [ 4; 2; 7; 1 ] in
  Alcotest.(check int) "destination" 1 (Path.destination p);
  Alcotest.(check int) "length" 3 (Path.length p);
  Alcotest.(check bool) "contains" true (Path.contains p 7);
  Alcotest.(check bool) "loop free" true (Path.is_loop_free p);
  Alcotest.(check bool) "loop detected" false (Path.is_loop_free [ 1; 2; 1 ]);
  Alcotest.(check string) "rendering" "<4, 2, 7, 1>" (Path.to_string p)

(* Following a path's own next hops from any node on it walks the
   path's suffix from that node (Observation 1 of the paper is about
   these downstream suffixes); from a node off the path it is stuck at
   once. *)
let test_path_suffix () =
  let p = [ 4; 2; 7; 1 ] in
  let next v = match next_after p v with -1 -> None | hop -> Some hop in
  let follow src = Path.follow next ~src ~dest:1 in
  Alcotest.(check bool) "suffix from 7" true (follow 7 = Path.Reached [ 7; 1 ]);
  Alcotest.(check bool) "suffix from source" true (follow 4 = Path.Reached p);
  Alcotest.(check bool) "absent" true (follow 9 = Path.Stuck [ 9 ])

let test_path_singleton () =
  Alcotest.(check int) "single length" 0 (Path.length [ 3 ]);
  Alcotest.(check bool) "walk to self" true
    (Path.follow (fun _ -> None) ~src:3 ~dest:3 = Path.Reached [ 3 ]);
  Alcotest.check_raises "empty destination"
    (Invalid_argument "Path.destination: empty path")
    (fun () -> ignore (Path.destination []))

let test_topology_structure () =
  let topo = Fixtures.figure2a () in
  Alcotest.(check int) "nodes" 4 (Topology.num_nodes topo);
  Alcotest.(check int) "links" 4 (Topology.num_links topo);
  Alcotest.(check int) "degree of A" 2 (Topology.degree topo 0);
  Alcotest.(check (option int)) "link A-B exists" (Some 0)
    (Topology.link_between topo 0 1);
  Alcotest.(check (option int)) "symmetric" (Some 0)
    (Topology.link_between topo 1 0);
  Alcotest.(check (option int)) "absent" None (Topology.link_between topo 1 2);
  Alcotest.(check bool) "B is A's customer" true
    (Topology.rel topo 0 1 = Some Relationship.Customer);
  Alcotest.(check bool) "A is B's provider" true
    (Topology.rel topo 1 0 = Some Relationship.Provider);
  Alcotest.(check bool) "connected" true (Topology.is_connected topo)

let test_topology_link_state () =
  let topo = Fixtures.figure2a () in
  Topology.set_up topo 0 false;
  Alcotest.(check bool) "down" false (Topology.is_up topo 0);
  Alcotest.(check (option Alcotest.reject)) "rel hidden when down" None
    (Option.map (fun _ -> ()) (Topology.rel topo 0 1));
  Alcotest.(check bool) "rel_any still visible" true
    (Topology.rel_any topo 0 1 = Some Relationship.Customer);
  Alcotest.(check int) "degree drops" 1 (Topology.degree topo 0);
  Alcotest.(check int) "full degree stable" 2 (Topology.full_degree topo 0);
  Topology.set_up topo 0 true;
  Alcotest.(check int) "degree restored" 2 (Topology.degree topo 0)

let test_topology_with_link_down () =
  let topo = Fixtures.figure2a () in
  let inside =
    Topology.with_link_down topo 1 (fun () -> Topology.is_up topo 1)
  in
  Alcotest.(check bool) "down inside" false inside;
  Alcotest.(check bool) "restored after" true (Topology.is_up topo 1);
  (* Exception safety. *)
  (try
     Topology.with_link_down topo 1 (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" true (Topology.is_up topo 1)

let test_topology_disconnection () =
  let topo = Fixtures.line 3 in
  Alcotest.(check bool) "connected" true (Topology.is_connected topo);
  Topology.set_up topo 0 false;
  Alcotest.(check bool) "disconnected" false (Topology.is_connected topo)

let test_topology_validation () =
  let bad msg edges =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Topology.create ~n:3 edges))
  in
  bad "Topology.create: self-loop" [ (1, 1, Relationship.Peer, 1.0) ];
  bad "Topology.create: duplicate link 0-1"
    [ (0, 1, Relationship.Peer, 1.0); (1, 0, Relationship.Peer, 1.0) ];
  bad "Topology.create: negative delay" [ (0, 1, Relationship.Peer, -1.0) ];
  (* A NaN or infinite delay would put a non-ordered or unreachable key
     into the event heap. *)
  List.iter
    (fun delay ->
      bad "Topology.create: non-finite delay" [ (0, 1, Relationship.Peer, delay) ])
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* A finite delay past the bound would make simulated times
     overflow. *)
  bad "Topology.create: delay 1e+308 ms over the 1e+06 ms limit"
    [ (0, 1, Relationship.Peer, 1e308) ];
  ignore (Topology.create ~n:2 [ (0, 1, Relationship.Peer, 1e6) ]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.create: node id out of range (0, 9)")
    (fun () ->
      ignore (Topology.create ~n:3 [ (0, 9, Relationship.Peer, 1.0) ]))

let test_relationship_counts () =
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Peer, 1.0);
        (0, 2, Relationship.Customer, 1.0);
        (2, 3, Relationship.Sibling, 1.0) ]
  in
  let c = Topology.relationship_counts topo in
  Alcotest.(check int) "peering" 1 c.Topology.peering;
  Alcotest.(check int) "provider" 1 c.Topology.provider_customer;
  Alcotest.(check int) "sibling" 1 c.Topology.sibling

let test_topo_io_roundtrip () =
  let topo = random_as_topology ~seed:41 ~n:60 in
  match Topo_io.of_string (Topo_io.to_string topo) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok topo' ->
    Alcotest.(check int) "nodes" (Topology.num_nodes topo)
      (Topology.num_nodes topo');
    Alcotest.(check int) "links" (Topology.num_links topo)
      (Topology.num_links topo');
    Topology.iter_links topo (fun l ->
        match Topology.link_between topo' l.Topology.a l.Topology.b with
        | None -> Alcotest.failf "missing link %d-%d" l.Topology.a l.Topology.b
        | Some id ->
          let l' = Topology.link topo' id in
          Alcotest.(check bool) "same relationship" true
            ((l'.Topology.a = l.Topology.a
              && Relationship.equal l'.Topology.rel_ab l.Topology.rel_ab)
            || (l'.Topology.a = l.Topology.b
                && Relationship.equal l'.Topology.rel_ab
                     (Relationship.invert l.Topology.rel_ab))))

let test_topo_io_errors () =
  (match Topo_io.of_string "link 0 1 peer 1.0" with
  | Error e -> Alcotest.(check string) "missing header" "missing 'nodes' header" e
  | Ok _ -> Alcotest.fail "accepted headerless input");
  (match Topo_io.of_string "nodes 2\nlink 0 1 friend 1.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad relationship");
  (match Topo_io.of_string "nodes 2\nlink 0 1 peer nan" with
  | Error e -> Alcotest.(check string) "NaN delay" "Topology.create: non-finite delay" e
  | Ok _ -> Alcotest.fail "accepted a NaN delay");
  (* The node count is bounded before anything is allocated for it. *)
  (match Topo_io.of_string "# big\nnodes 1000001\nlink 0 1 peer 1.0" with
  | Error e ->
    Alcotest.(check string) "node count" "line 2: node count 1000001 over the 1000000 limit" e
  | Ok _ -> Alcotest.fail "accepted 1000001 nodes");
  match Topo_io.of_string "nodes 2\n# comment\n\nlink 0 1 peer 0.5" with
  | Ok t -> Alcotest.(check int) "comments skipped" 1 (Topology.num_links t)
  | Error e -> Alcotest.failf "rejected valid input: %s" e

let test_topo_io_file_roundtrip () =
  let topo = Fixtures.figure2a () in
  let path = Filename.temp_file "centaur" ".topo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topo_io.save topo path;
      match Topo_io.load path with
      | Ok topo' ->
        Alcotest.(check int) "links" (Topology.num_links topo)
          (Topology.num_links topo')
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_tier_assignment () =
  (* Star: center is clearly tier 1. *)
  let degrees = [| 10; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1 |] in
  let tiers = Tier.assign_tiers ~degrees ~num_tiers:3 in
  Alcotest.(check int) "hub is tier 1" 1 tiers.(0);
  Alcotest.(check int) "leaf is bottom tier" 3 tiers.(10)

let test_tier_relationships () =
  let tiers = [| 1; 1; 2; 2 |] in
  let degrees = [| 9; 9; 5; 3 |] in
  let rels =
    Tier.relationships ~tiers ~degrees ~edges:[ (0, 1); (0, 2); (2, 3) ]
  in
  Alcotest.(check bool) "tier1 pair peers" true
    (List.mem (0, 1, Relationship.Peer) rels);
  Alcotest.(check bool) "cross tier provider->customer" true
    (List.mem (0, 2, Relationship.Customer) rels);
  Alcotest.(check bool) "same lower tier directed by degree" true
    (List.mem (2, 3, Relationship.Customer) rels)

let test_tier_annotate_connected_hierarchy () =
  (* Every non-tier-1 node must have a provider chain to tier 1 so the
     valley-free route set is near-complete. *)
  let topo = random_brite ~seed:42 ~n:120 ~m:2 in
  Alcotest.(check bool) "connected" true (Topology.is_connected topo)

let test_prefix_tables () =
  let rng = Rng.create 5 in
  let t = Prefix.generate rng ~n:500 ~mean:10.0 in
  Alcotest.(check int) "ases" 500 (Prefix.num_ases t);
  Alcotest.(check bool) "every AS has a prefix" true
    (Array.for_all (fun c -> c >= 1) (Prefix.weights t));
  let m = Prefix.mean t in
  if m < 7.0 || m > 13.0 then Alcotest.failf "mean off target: %.1f" m;
  let agg = Prefix.aggregate t in
  Alcotest.(check int) "aggregated total" 500 (Prefix.total agg);
  let deagg = Prefix.deaggregate t ~factor:3 in
  Alcotest.(check int) "deaggregated total" (3 * Prefix.total t)
    (Prefix.total deagg);
  Alcotest.(check int) "uniform" 4 (Prefix.count (Prefix.uniform ~n:3 ~per_as:4) 2)

let test_prefix_validation () =
  Alcotest.check_raises "mean too small"
    (Invalid_argument "Prefix.generate: mean < 1.0") (fun () ->
      ignore (Prefix.generate (Rng.create 1) ~n:5 ~mean:0.5));
  Alcotest.check_raises "factor"
    (Invalid_argument "Prefix.deaggregate: factor < 1") (fun () ->
      ignore (Prefix.deaggregate (Prefix.uniform ~n:2 ~per_as:1) ~factor:0))

(* Pair lookups answer from the CSR adjacency; a scan of the link list
   is the oracle. Random topologies, random links down, every ordered
   pair including ids one past either end of the range. *)
let pair_lookups_match_link_scan =
  QCheck.Test.make ~name:"topology pair lookups == scan of links" ~count:200
    QCheck.(pair (int_range 1 12) (int_bound 1_000_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let edges = ref [] in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Random.State.int st 3 = 0 then begin
            let rel =
              List.nth Relationship.all
                (Random.State.int st (List.length Relationship.all))
            in
            let a, b = if Random.State.bool st then (a, b) else (b, a) in
            edges := (a, b, rel, 1.0) :: !edges
          end
        done
      done;
      let topo = Topology.create ~n (List.rev !edges) in
      Array.iter
        (fun (l : Topology.link) ->
          if Random.State.int st 3 = 0 then Topology.set_up topo l.id false)
        (Topology.links topo);
      let agrees a b =
        let found =
          Array.fold_left
            (fun acc (l : Topology.link) ->
              if (l.a = a && l.b = b) || (l.a = b && l.b = a) then Some l
              else acc)
            None (Topology.links topo)
        in
        let role =
          Option.map
            (fun (l : Topology.link) ->
              if l.a = a then l.rel_ab else Relationship.invert l.rel_ab)
            found
        in
        let up =
          match found with
          | Some l -> Topology.is_up topo l.Topology.id
          | None -> false
        in
        Topology.link_between topo a b
        = Option.map (fun (l : Topology.link) -> l.id) found
        && Topology.rel_any topo a b = role
        && Topology.rel topo a b = if up then role else None
      in
      let ok = ref true in
      for a = -1 to n do
        for b = -1 to n do
          if not (agrees a b) then ok := false
        done
      done;
      !ok)

(* The one data-plane walk over random next-hop functions on up to 12
   nodes: it asks each node at most once, so it visits at most n + 1,
   every step it takes is a next hop, and each ending is as named —
   [Reached] a loop-free path from [src] to [dest], [Looped] at its
   first repeated node, [Stuck] at a node without a next hop. *)
let follow_ends_as_named =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      let node = int_bound (n - 1) in
      triple (array_size (return n) (opt node)) node node)
  in
  let print = QCheck.Print.(triple (array (option int)) int int) in
  QCheck.Test.make ~name:"Path.follow: bounded walk, ends as named"
    ~count:(qcheck_count 500) (QCheck.make ~print gen)
    (fun (next, src, dest) ->
      let n = Array.length next in
      let asked = ref 0 in
      let walk =
        Path.follow
          (fun v ->
            incr asked;
            next.(v))
          ~src ~dest
      in
      let p =
        match walk with Path.Reached p | Path.Stuck p | Path.Looped p -> p
      in
      let last = Path.destination p in
      let before_last = List.filteri (fun i _ -> i < List.length p - 1) p in
      !asked <= n
      && List.length p <= n + 1
      && List.hd p = src
      && List.for_all (fun (a, b) -> next.(a) = Some b) (path_links p)
      &&
      match walk with
      | Path.Reached _ -> last = dest && Path.is_loop_free p
      | Path.Looped _ ->
        Path.is_loop_free before_last
        && Path.contains before_last last
        && not (Path.contains p dest)
      | Path.Stuck _ ->
        next.(last) = None && last <> dest && Path.is_loop_free p)

let suite =
  [ Alcotest.test_case "relationship invert" `Quick test_relationship_invert;
    Alcotest.test_case "prefix tables" `Quick test_prefix_tables;
    Alcotest.test_case "prefix validation" `Quick test_prefix_validation;
    Alcotest.test_case "relationship strings" `Quick
      test_relationship_strings;
    Alcotest.test_case "path accessors" `Quick test_path_accessors;
    Alcotest.test_case "path suffix" `Quick test_path_suffix;
    Alcotest.test_case "path singleton/empty" `Quick test_path_singleton;
    Alcotest.test_case "topology structure" `Quick test_topology_structure;
    Alcotest.test_case "topology link state" `Quick test_topology_link_state;
    Alcotest.test_case "with_link_down" `Quick test_topology_with_link_down;
    Alcotest.test_case "topology disconnection" `Quick
      test_topology_disconnection;
    Alcotest.test_case "topology validation" `Quick test_topology_validation;
    Alcotest.test_case "relationship counts" `Quick test_relationship_counts;
    Alcotest.test_case "topo io roundtrip" `Quick test_topo_io_roundtrip;
    Alcotest.test_case "topo io errors" `Quick test_topo_io_errors;
    Alcotest.test_case "topo io file roundtrip" `Quick
      test_topo_io_file_roundtrip;
    Alcotest.test_case "tier assignment" `Quick test_tier_assignment;
    Alcotest.test_case "tier relationships" `Quick test_tier_relationships;
    Alcotest.test_case "tier hierarchy connected" `Quick
      test_tier_annotate_connected_hierarchy;
    QCheck_alcotest.to_alcotest pair_lookups_match_link_scan;
    QCheck_alcotest.to_alcotest follow_ends_as_named ]
