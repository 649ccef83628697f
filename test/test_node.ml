(* The Centaur node driven directly (no simulator): a hand-rolled
   synchronous message pump over small topologies, checking announce
   content, import filtering, loop avoidance and state accessors. *)

open Helpers
open Centaur

(* Receive one announcement and emit what follows. *)
let handle node ann = Node.recompute (Node.absorb node ann)

(* React to a local link change and emit what follows. *)
let on_adjacency_change node = Node.recompute (Node.absorb_adjacency node)

(* Every (destination, selected path), destinations ascending, the
   node's own [[id]] included. *)
let selected_paths topo node =
  List.filter_map
    (fun dest -> Option.map (fun p -> (dest, p)) (Node.selected_path node ~dest))
    (List.init (Topology.num_nodes topo) Fun.id)

(* The local P-graph: BuildGraph over the selected paths, marked at the
   node's own prefix. *)
let local_pgraph topo node =
  let g =
    Pgraph.of_paths ~root:(Node.id node)
      (List.filter_map
         (fun (_, p) -> if Path.length p > 0 then Some p else None)
         (selected_paths topo node))
  in
  Pgraph.mark_dest g (Node.id node);
  g

(* Deliver queued messages synchronously until quiescence, discarding
   those [drop] picks (a lossy link: nothing resends them). *)
let pump ?(drop = fun () -> false) nodes queue =
  let guard = ref 0 in
  while not (Queue.is_empty queue) do
    incr guard;
    if !guard > 1_000_000 then failwith "node pump diverged";
    let dst, ann = Queue.pop queue in
    if not (drop ()) then begin
      let st, out = handle nodes.(dst) ann in
      nodes.(dst) <- st;
      List.iter (fun m -> Queue.push m queue) out
    end
  done

(* Tell node [i] its adjacency changed and queue what it sends. *)
let bump nodes queue i =
  let st, out = on_adjacency_change nodes.(i) in
  nodes.(i) <- st;
  List.iter (fun m -> Queue.push m queue) out

(* Start every node and pump to quiescence; returns the nodes. *)
let converge ?drop topo =
  let n = Topology.num_nodes topo in
  let nodes = Array.init n (fun id -> Node.create topo ~id) in
  let queue = Queue.create () in
  Array.iteri
    (fun i _ ->
      let st, out = Node.start nodes.(i) in
      nodes.(i) <- st;
      List.iter (fun m -> Queue.push m queue) out)
    nodes;
  pump ?drop nodes queue;
  nodes

let test_converges_to_solver_fig2 () =
  let topo = Fixtures.figure2a () in
  let nodes = converge topo in
  let n = Topology.num_nodes topo in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    for src = 0 to n - 1 do
      if src <> dest then
        check_path_opt
          (Printf.sprintf "path %d->%d" src dest)
          (Solver.path r src)
          (Node.selected_path nodes.(src) ~dest)
    done
  done

let test_first_announcement_is_adjacency () =
  let topo = Fixtures.figure2a () in
  let node = Node.create topo ~id:Fixtures.a in
  let _, out = Node.start node in
  (* A announces to each neighbor: its own prefix plus the direct links
     it may export. *)
  Alcotest.(check int) "one announcement per neighbor" 2 (List.length out);
  List.iter
    (fun (_, ann) ->
      let d = ann.Announce.delta in
      Alcotest.(check bool) "marks self as destination" true
        (List.mem Fixtures.a d.Pgraph.add_dests))
    out

let test_neighbor_graph_assembled () =
  let topo = Fixtures.figure2a () in
  let nodes = converge topo in
  (* A's view of B's P-graph derives exactly B's exported paths. *)
  match Node.neighbor_pgraph nodes.(Fixtures.a) ~neighbor:Fixtures.b with
  | None -> Alcotest.fail "no session with B"
  | Some g ->
    check_path_opt "B's path to D visible at A"
      (Some [ Fixtures.b; Fixtures.d ])
      (Pgraph.derive_path g ~dest:Fixtures.d);
    (* B's path to C goes through A itself: the import filter removed the
       link pointing at A, so it must NOT be derivable. *)
    check_path_opt "path through A not derivable" None
      (Pgraph.derive_path g ~dest:Fixtures.c)

let test_local_pgraph_matches_selection () =
  let topo = random_as_topology ~seed:51 ~n:25 in
  let nodes = converge topo in
  Array.iter
    (fun node ->
      let g = local_pgraph topo node in
      List.iter
        (fun (dest, p) ->
          check_path_opt
            (Printf.sprintf "derive %d from local graph" dest)
            (Some p) (Pgraph.derive_path g ~dest))
        (selected_paths topo node))
    nodes

let test_selected_paths_sorted_and_consistent () =
  let topo = Fixtures.two_tier_peering () in
  let nodes = converge topo in
  let paths = selected_paths topo nodes.(2) in
  let dests = List.map fst paths in
  Alcotest.(check (list int)) "sorted dests" (List.sort compare dests) dests;
  List.iter
    (fun (dest, p) ->
      Alcotest.(check int) "path ends at dest" dest (Path.destination p);
      Alcotest.(check int) "path starts at self" 2 (List.hd p))
    paths;
  Alcotest.(check (option int)) "next hop accessor" (Some 0)
    (Node.next_hop nodes.(2) ~dest:4);
  (* The node's selection for itself: its own prefix, no next hop. *)
  check_path_opt "own prefix" (Some [ 2 ]) (Node.selected_path nodes.(2) ~dest:2);
  Alcotest.(check (option int)) "no next hop to itself" None
    (Node.next_hop nodes.(2) ~dest:2)

let test_announcements_are_incremental () =
  (* After convergence, re-delivering a node's flushed state must not
     trigger further announcements (fixpoint). We approximate by checking
     convergence terminated — the pump's guard — plus empty re-start. *)
  let topo = Fixtures.figure2a () in
  let nodes = converge topo in
  (* A second adjacency scan with no actual change produces no output. *)
  let _, out = on_adjacency_change nodes.(Fixtures.a) in
  Alcotest.(check int) "no spurious announcements" 0 (List.length out)

let test_message_from_unknown_sender_dropped () =
  let topo = Fixtures.figure2a () in
  let node = Node.create topo ~id:Fixtures.a in
  let _, _ = Node.start node in
  (* D is not A's neighbor; a stray message must be ignored. *)
  let stray =
    Announce.make ~sender:Fixtures.d
      { Pgraph.add_links = [ (Fixtures.d, Fixtures.b, Permission_list.empty) ];
        remove_links = [];
        add_dests = [ Fixtures.d ];
        remove_dests = [] }
  in
  let _, out = handle node stray in
  Alcotest.(check int) "dropped" 0 (List.length out);
  Alcotest.(check bool) "no session created" true
    (Node.neighbor_pgraph node ~neighbor:Fixtures.d = None)

(* A node's per-session state is indexed by node id, so an announcement
   naming an id outside the topology, or a link from a node to itself,
   cannot be applied. It is dropped: no exception, nothing sent, the
   sender's graph and every route as they were. *)
let test_out_of_range_ids_dropped () =
  let topo = Fixtures.figure2a () in
  let n = Topology.num_nodes topo in
  let nodes = converge topo in
  let a = nodes.(Fixtures.a) in
  let routes = selected_paths topo a in
  let graph =
    match Node.neighbor_pgraph a ~neighbor:Fixtures.b with
    | Some g -> Pgraph.copy g
    | None -> Alcotest.fail "no session with B"
  in
  let bogus =
    Announce.make ~sender:Fixtures.b
      { Pgraph.add_links =
          [ (Fixtures.b, n, Permission_list.empty);
            (n + 5, Fixtures.b, Permission_list.empty);
            (Fixtures.c, Fixtures.c, Permission_list.empty) ];
        remove_links = [ (Fixtures.b, n) ];
        add_dests = [ n; n + 3; -1 ];
        remove_dests = [ n ] }
  in
  let a, out = handle a bogus in
  Alcotest.(check int) "nothing sent" 0 (List.length out);
  Alcotest.(check bool) "sender's graph unchanged" true
    (match Node.neighbor_pgraph a ~neighbor:Fixtures.b with
    | Some g -> Pgraph.equal g graph
    | None -> false);
  Alcotest.(check bool) "routes unchanged" true (selected_paths topo a = routes)

let test_adjacency_loss_reroutes () =
  let topo = Fixtures.figure2a () in
  let nodes = converge topo in
  (* Kill A-B; A must reroute to D via C after the change propagates. *)
  (match Topology.link_between topo Fixtures.a Fixtures.b with
  | Some id -> Topology.set_up topo id false
  | None -> Alcotest.fail "missing link");
  let queue = Queue.create () in
  bump nodes queue Fixtures.a;
  bump nodes queue Fixtures.b;
  pump nodes queue;
  check_path_opt "A reroutes via C"
    (Some [ Fixtures.a; Fixtures.c; Fixtures.d ])
    (Node.selected_path nodes.(Fixtures.a) ~dest:Fixtures.d);
  Alcotest.(check bool) "B session gone at A" true
    (Node.neighbor_pgraph nodes.(Fixtures.a) ~neighbor:Fixtures.b = None)

let test_announce_units () =
  let delta =
    { Pgraph.add_links = [ (0, 1, Permission_list.empty); (1, 2, Permission_list.empty) ];
      remove_links = [ (3, 4) ];
      add_dests = [ 2 ];
      remove_dests = [] }
  in
  let ann = Announce.make ~sender:0 delta in
  Alcotest.(check int) "three link changes" 3 (Announce.units ann);
  let empty_marks =
    Announce.make ~sender:0
      { Pgraph.add_links = []; remove_links = []; add_dests = [ 5 ];
        remove_dests = [] }
  in
  Alcotest.(check int) "mark-only message still costs one" 1
    (Announce.units empty_marks)

(* The byte price of a hand-built update: an 8-byte header, 8 + 1 per
   added link plus its list's compressed size (an emptied list, as the
   corruption fault sends, costs what a bare link costs), 8 per removed
   link and 4 per destination mark. *)
let test_announce_wire_bytes () =
  let pl =
    List.fold_left
      (fun pl (dest, next) -> Permission_list.add pl ~dest ~next)
      Permission_list.empty
      [ (5, 2); (6, 2); (7, -1) ]
  in
  (* Two entries: one destination (a 10-bit filter, 2 bytes) and two
     (20 bits, 3 bytes), each with a 4-byte next hop. *)
  Alcotest.(check int) "list price" 13
    (Permission_list.compressed_size_bytes pl ~fp_rate:0.01);
  let emptied = Permission_list.filter_dests pl (fun _ -> false) in
  let ann =
    Announce.make ~sender:0
      { Pgraph.add_links =
          [ (0, 1, Permission_list.empty); (1, 2, pl); (1, 3, emptied) ];
        remove_links = [ (3, 4); (4, 5) ];
        add_dests = [ 2; 3 ];
        remove_dests = [ 9 ] }
  in
  Alcotest.(check int) "priced update" (8 + (3 * 9) + 13 + (2 * 8) + (3 * 4))
    (Announce.wire_bytes ann);
  Alcotest.(check int) "rate reaches the lists"
    (8 + (3 * 9)
    + Permission_list.compressed_size_bytes pl ~fp_rate:0.001
    + (2 * 8) + (3 * 4))
    (Announce.wire_bytes ~plist_fp_rate:0.001 ann);
  Alcotest.(check int) "five link changes" 5 (Announce.units ann);
  let marks_only =
    Announce.make ~sender:0
      { Pgraph.add_links = []; remove_links = []; add_dests = [ 5 ];
        remove_dests = [] }
  in
  Alcotest.(check int) "marks-only price" (8 + 4) (Announce.wire_bytes marks_only);
  Alcotest.(check int) "marks-only unit" 1 (Announce.units marks_only)

(* §4.3 Step 2's import filter: [Node.absorb] drops a received delta's
   links into the receiver (X -> A), which would close a loop through
   it, and applies the rest. *)
let test_announce_import_filter () =
  let nodes = converge (Fixtures.figure2a ()) in
  let a = nodes.(Fixtures.a) in
  let session () =
    match Node.neighbor_pgraph a ~neighbor:Fixtures.b with
    | Some g -> g
    | None -> Alcotest.fail "no session with B"
  in
  let expected = Pgraph.copy (session ()) in
  Pgraph.apply expected
    { Pgraph.add_links = [ (Fixtures.d, Fixtures.c, Permission_list.empty) ];
      remove_links = [];
      add_dests = [];
      remove_dests = [] };
  let into_a =
    { Pgraph.add_links =
        [ (Fixtures.b, Fixtures.a, Permission_list.empty);
          (Fixtures.d, Fixtures.c, Permission_list.empty);
          (Fixtures.d, Fixtures.a, Permission_list.empty) ];
      remove_links = [ (Fixtures.c, Fixtures.a) ];
      add_dests = [];
      remove_dests = [] }
  in
  ignore (handle a (Announce.make ~sender:Fixtures.b into_a));
  Alcotest.(check bool) "other link applied" true
    (Pgraph.mem_link (session ()) ~parent:Fixtures.d ~child:Fixtures.c);
  Alcotest.(check bool) "links into the receiver dropped" true
    (Pgraph.equal (session ()) expected)

(* After lost deltas a node's session graphs are whatever arrived, but
   what it derives from them must still be exact: at quiescence, every
   node's routes equal those of a fresh node of the same id that is
   handed the same session graphs, one full announcement per session.
   Lossy pumping on small BRITE graphs, with link flips between
   quiescent phases. *)
let routes_equal_rebuild_after_loss =
  QCheck.Test.make ~name:"routes = rebuild from own session graphs under loss"
    ~count:(qcheck_count 200)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let topo = random_brite ~seed ~n:(12 + (seed mod 5)) ~m:2 in
      let rng = Random.State.make [| seed |] in
      let drop () = Random.State.float rng 1.0 < 0.15 in
      let nodes = converge ~drop topo in
      let queue = Queue.create () in
      for _ = 1 to 6 do
        let link = Topology.link topo (Random.State.int rng (Topology.num_links topo)) in
        Topology.set_up topo link.Topology.id (not (Topology.is_up topo link.Topology.id));
        bump nodes queue link.Topology.a;
        bump nodes queue link.Topology.b;
        pump ~drop nodes queue
      done;
      Array.for_all
        (fun node ->
          let id = Node.id node in
          let fresh = ref (fst (Node.start (Node.create topo ~id))) in
          Topology.iter_neighbors topo id (fun nbr _ _ ->
              match Node.neighbor_pgraph node ~neighbor:nbr with
              | None -> ()
              | Some pg ->
                let empty = Pgraph.create ~nodes:(Topology.num_nodes topo) ~root:nbr in
                let delta = Pgraph.diff ~old_:empty ~new_:pg in
                fresh := Node.absorb !fresh (Announce.make ~sender:nbr delta));
          let fresh = fst (Node.recompute !fresh) in
          selected_paths topo node = selected_paths topo fresh)
        nodes)

(* A valley-free walk of up to [hops] links from [src], never visiting
   [avoid]: up to providers, across at most one peer, then down to
   customers; siblings anywhere. *)
let vf_walk topo rng ~src ~avoid ~hops =
  let rec go node down acc k =
    let options = ref [] in
    if k > 0 then
      Topology.iter_neighbors topo node (fun nbr role _ ->
          if nbr <> avoid && not (List.mem nbr acc) then
            match role with
            | Relationship.Customer -> options := (nbr, true) :: !options
            | Relationship.Sibling -> options := (nbr, down) :: !options
            | Relationship.Provider | Relationship.Peer ->
              if not down then options := (nbr, role = Relationship.Peer) :: !options);
    match !options with
    | [] -> List.rev acc
    | opts ->
      let nbr, down = List.nth opts (Random.State.int rng (List.length opts)) in
      go nbr down (nbr :: acc) (k - 1)
  in
  go src false [ src ] hops

(* The one-hop check, delta by delta: a node fed one neighbor's graph
   as a sequence of deltas must select what a fresh node handed the
   current graph whole selects, after every delta. Each graph is the
   multi-path BuildGraph of a random subset of a fixed pool of
   valley-free walks from the neighbor, so from one graph to the next
   children gain and lose in-links, turn multi-homed and single-homed
   again, and keep their in-links while their Permission Lists change:
   every case of the check. Now and then one link loses its Permission
   List, as under the misconfigured-list fault: in a well-formed graph a
   child that turns multi-homed has every in-link re-announced with a
   list, which would hide a check that missed the new in-link. *)
let delta_check_matches_rebuild =
  QCheck.Test.make ~name:"one-hop check = rebuild after every session delta"
    ~count:(qcheck_count 300)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let topo = random_brite ~seed ~n:(8 + (seed mod 5)) ~m:2 in
      let rng = Random.State.make [| seed |] in
      let me = Random.State.int rng (Topology.num_nodes topo) in
      let nbrs = ref [] in
      Topology.iter_neighbors topo me (fun v _ _ -> nbrs := v :: !nbrs);
      QCheck.assume (!nbrs <> []);
      let nbr = List.nth !nbrs (Random.State.int rng (List.length !nbrs)) in
      let pool =
        List.init 12 (fun _ ->
            vf_walk topo rng ~src:nbr ~avoid:me ~hops:(1 + Random.State.int rng 4))
        |> List.filter (fun p -> List.length p >= 2)
      in
      let started () = fst (Node.start (Node.create topo ~id:me)) in
      let absorb node ~old_ ~new_ =
        let ann = Announce.make ~sender:nbr (Pgraph.diff ~old_ ~new_) in
        fst (Node.recompute (Node.absorb node ann))
      in
      let empty () = Pgraph.create ~nodes:(Topology.num_nodes topo) ~root:nbr in
      let node = ref (started ()) and graph = ref (empty ()) in
      List.for_all
        (fun _ ->
          let g =
            Pgraph.of_multipaths ~root:nbr
              (List.filter (fun _ -> Random.State.bool rng) pool)
          in
          (match Pgraph.links g with
          | links when links <> [] && Random.State.int rng 4 = 0 ->
            let parent, child, _ =
              List.nth links (Random.State.int rng (List.length links))
            in
            Pgraph.add_link g ~parent ~child
              ~data:{ Pgraph.counter = 0; plist = Permission_list.empty }
          | _ -> ());
          node := absorb !node ~old_:!graph ~new_:g;
          graph := g;
          let fresh = absorb (started ()) ~old_:(empty ()) ~new_:g in
          selected_paths topo !node = selected_paths topo fresh)
        (List.init 16 Fun.id))

let suite =
  [ Alcotest.test_case "node pump = solver (fig2)" `Quick
      test_converges_to_solver_fig2;
    Alcotest.test_case "first announcement" `Quick
      test_first_announcement_is_adjacency;
    Alcotest.test_case "neighbor graph assembled" `Quick
      test_neighbor_graph_assembled;
    Alcotest.test_case "local pgraph matches selection" `Quick
      test_local_pgraph_matches_selection;
    Alcotest.test_case "selected paths accessors" `Quick
      test_selected_paths_sorted_and_consistent;
    Alcotest.test_case "fixpoint after convergence" `Quick
      test_announcements_are_incremental;
    Alcotest.test_case "unknown sender dropped" `Quick
      test_message_from_unknown_sender_dropped;
    Alcotest.test_case "out-of-range ids dropped" `Quick
      test_out_of_range_ids_dropped;
    Alcotest.test_case "adjacency loss reroutes" `Quick
      test_adjacency_loss_reroutes;
    Alcotest.test_case "announce units" `Quick test_announce_units;
    Alcotest.test_case "announce wire bytes" `Quick test_announce_wire_bytes;
    Alcotest.test_case "announce import filter" `Quick
      test_announce_import_filter;
    QCheck_alcotest.to_alcotest routes_equal_rebuild_after_loss;
    QCheck_alcotest.to_alcotest delta_check_matches_rebuild ]
