(* Equivalence suites for the flat-layout rewrites: the packed-key,
   node-indexed P-graph against a reference port of the previous
   nested-Hashtbl implementation, and the workspace-reusing solver
   against fresh per-call solver state. The reference
   ([Oracle.Reference]) is the pre-packed [Pgraph] code, verbatim modulo
   the [Pgraph.link_data] type, so any observable divergence of the
   packed layout fails here. *)

open Centaur

module Reference = Oracle.Reference

let links_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p1, c1, (d1 : Pgraph.link_data)) (p2, c2, d2) ->
         p1 = p2 && c1 = c2
         && d1.Pgraph.counter = d2.Pgraph.counter
         && Permission_list.equal d1.Pgraph.plist d2.Pgraph.plist)
       a b

let same_graph ~what (g : Pgraph.t) (r : Reference.t) =
  let links = Pgraph.links g in
  let children_of node =
    List.filter_map (fun (p, c, _) -> if p = node then Some c else None) links
  in
  if not (links_equal links (Reference.links r)) then
    Alcotest.failf "%s: links differ" what;
  if Pgraph.num_links g <> Reference.num_links r then
    Alcotest.failf "%s: num_links differ" what;
  if Pgraph.dests g <> Reference.dests r then
    Alcotest.failf "%s: dests differ" what;
  if Pgraph.nodes g <> Reference.nodes r then
    Alcotest.failf "%s: nodes differ" what;
  List.iter
    (fun node ->
      if Pgraph.in_degree g node <> Reference.in_degree r node then
        Alcotest.failf "%s: in_degree %d differs" what node;
      if children_of node <> Reference.children_of r node then
        Alcotest.failf "%s: children_of %d differs" what node;
      let pg = Pgraph.parents_of g node
      and pr = Reference.parents_of r node in
      if
        not
          (List.length pg = List.length pr
          && List.for_all2
               (fun (p1, (d1 : Pgraph.link_data)) (p2, d2) ->
                 p1 = p2
                 && d1.Pgraph.counter = d2.Pgraph.counter
                 && Permission_list.equal d1.Pgraph.plist d2.Pgraph.plist)
               pg pr)
      then Alcotest.failf "%s: parents_of %d differs" what node)
    (Reference.nodes r);
  List.iter
    (fun d ->
      let a = Pgraph.derive_path g ~dest:d
      and b = Reference.derive_path r ~dest:d in
      if a <> b then Alcotest.failf "%s: derive_path %d differs" what d)
    (Reference.nodes r)

(* Path sets from the real pipeline: selected paths of a random AS
   topology, plus the same topology with one link cut — the workload
   whose diffs drive the steady phase. *)
let path_sets_of_seed seed =
  let n = 20 + (seed mod 30) in
  let topo = Helpers.random_as_topology ~seed ~n in
  let src = seed mod n in
  let paths = Solver.path_set_from topo ~src in
  let link = seed mod max 1 (Topology.num_links topo) in
  let paths' =
    Topology.with_link_down topo link (fun () ->
        Solver.path_set_from topo ~src)
  in
  (src, paths, paths')

let packed_matches_reference =
  QCheck.Test.make ~name:"packed pgraph == reference (paths, ops, derive)"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src, paths, _ = path_sets_of_seed seed in
      QCheck.assume (paths <> []);
      let g = Pgraph.of_paths ~root:src paths
      and r = Reference.of_paths ~root:src paths in
      same_graph ~what:"of_paths" g r;
      (* [g]'s node bound is one past its largest id, below the burst's
         ids: the burst runs on the same graph built link by link over
         64 nodes, which must equal [g] first, across the two bounds. *)
      let gb = Pgraph.create ~nodes:64 ~root:src in
      List.iter
        (fun (parent, child, data) -> Pgraph.add_link gb ~parent ~child ~data)
        (Pgraph.links g);
      List.iter (Pgraph.mark_dest gb) (Pgraph.dests g);
      if not (Pgraph.equal g gb && Pgraph.equal gb g) then
        Alcotest.fail "graphs of two bounds not equal";
      if not (Pgraph.delta_is_empty (Pgraph.diff ~old_:g ~new_:gb)) then
        Alcotest.fail "diff across bounds not empty";
      (* Random mutation burst applied to [gb] and the reference. *)
      let rng = Random.State.make [| seed; 77 |] in
      let rand_plist () =
        let pl = ref Permission_list.empty in
        if not (Random.State.bool rng) then
          for _ = 0 to Random.State.int rng 3 do
            let dest = Random.State.int rng 40 in
            let next =
              if Random.State.bool rng then -1 else Random.State.int rng 40
            in
            pl := Permission_list.add !pl ~dest ~next
          done;
        !pl
      in
      for _ = 1 to 40 do
        let a = Random.State.int rng 40 and b = Random.State.int rng 40 in
        if a <> b then
          match Random.State.int rng 4 with
          | 0 ->
            let data =
              { Pgraph.counter = Random.State.int rng 3; plist = rand_plist () }
            in
            Pgraph.add_link gb ~parent:a ~child:b ~data;
            Reference.add_link r ~parent:a ~child:b ~data
          | 1 ->
            Pgraph.remove_link gb ~parent:a ~child:b;
            Reference.remove_link r ~parent:a ~child:b
          | 2 ->
            Pgraph.mark_dest gb a;
            Reference.mark_dest r a
          | _ ->
            Pgraph.unmark_dest gb a;
            Reference.unmark_dest r a
      done;
      same_graph ~what:"after ops" gb r;
      true)

(* BuildGraph's passes at the top of the id range: a multi-homed
   [max_node] with parents [max_node - 2] and [max_node - 1], one path
   ending there and one continuing to 0, so packed links, traversals
   and Permission-List pairs all carry ids of 31 bits (and a next hop of
   none). A graph spans one past its largest id, so none is built here:
   the traversal record's links, counts and lists must be the
   reference graph's. *)
let test_build_graph_at_id_limit () =
  let m = Pgraph.max_node in
  let root = m - 3 in
  let paths = [ [ root; m - 2; m ]; [ root; m - 1; m; 0 ] ] in
  let r = Pgraph.Traversals.create ~hint:4 in
  List.iter (Pgraph.Traversals.add_path r) paths;
  let links = ref [] in
  Pgraph.Traversals.iter r (Permission_list.Scratch.create ())
    (fun ~key ~count pl ->
      let plist =
        match pl with
        | Some sc -> Permission_list.Scratch.freeze sc
        | None -> Permission_list.empty
      in
      let data = { Pgraph.counter = count; plist } in
      links := (Pgraph.key_parent key, Pgraph.key_child key, data) :: !links);
  let links = List.sort (fun (p, c, _) (p', c', _) -> compare (p, c) (p', c')) !links in
  Alcotest.(check int) "both in-links of max_node carry lists" 2
    (List.length
       (List.filter
          (fun (_, _, d) -> not (Permission_list.is_empty d.Pgraph.plist))
          links));
  if not (links_equal links (Reference.links (Reference.of_paths ~root paths))) then
    Alcotest.fail "id limit: traversals differ from the reference graph"

let diff_apply_matches_reference =
  QCheck.Test.make ~name:"packed diff/apply == reference" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src, paths, paths' = path_sets_of_seed seed in
      QCheck.assume (paths <> [] && paths' <> []);
      let g1 = Pgraph.of_paths ~root:src paths
      and g2 = Pgraph.of_paths ~root:src paths'
      and r1 = Reference.of_paths ~root:src paths
      and r2 = Reference.of_paths ~root:src paths' in
      let delta = Pgraph.diff ~old_:g1 ~new_:g2 in
      let ra, rr, rad, rrd = Reference.diff ~old_:r1 ~new_:r2 in
      if
        not
          (List.length delta.Pgraph.add_links = List.length ra
          && List.for_all2
               (fun (p1, c1, pl1) (p2, c2, pl2) ->
                 p1 = p2 && c1 = c2 && Permission_list.equal pl1 pl2)
               delta.Pgraph.add_links ra)
      then Alcotest.fail "diff add_links differ";
      if delta.Pgraph.remove_links <> rr then
        Alcotest.fail "diff remove_links differ";
      if delta.Pgraph.add_dests <> rad then
        Alcotest.fail "diff add_dests differ";
      if delta.Pgraph.remove_dests <> rrd then
        Alcotest.fail "diff remove_dests differ";
      (* Applying the delta must land both implementations on the same
         graph (counters reset on applied links, like a receiver). *)
      let ga = Pgraph.copy g1 in
      Pgraph.apply ga delta;
      Reference.apply r1 (rr, ra, rad, rrd);
      if not (Pgraph.equal ga g2) then
        Alcotest.fail "apply(diff) does not reproduce the new packed graph";
      let stripped l =
        List.map
          (fun (p, c, (d : Pgraph.link_data)) -> (p, c, d.Pgraph.plist))
          l
      in
      let la = stripped (Pgraph.links ga)
      and lr = stripped (Reference.links r1) in
      if
        not
          (List.length la = List.length lr
          && List.for_all2
               (fun (p1, c1, pl1) (p2, c2, pl2) ->
                 p1 = p2 && c1 = c2 && Permission_list.equal pl1 pl2)
               la lr)
      then Alcotest.fail "applied graphs differ";
      true)

(* --- workspace-reused solver == fresh solver --- *)

let workspace_solver_matches_fresh =
  QCheck.Test.make ~name:"workspace to_dest_with == fresh to_dest" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      (* Two topologies of different sizes against one workspace, so
         capacity growth and array reuse across topologies are both
         exercised. *)
      let sizes = [ 20 + (seed mod 20); 45 + (seed mod 10) ] in
      let ws = Solver.create_workspace () in
      List.iter
        (fun n ->
          let topo = Helpers.random_as_topology ~seed:(seed + n) ~n in
          for d = 0 to n - 1 do
            let r_ws = Solver.to_dest_with ws topo d in
            let fresh = Solver.to_dest topo d in
            for v = 0 to n - 1 do
              if Solver.reachable r_ws v <> Solver.reachable fresh v then
                Alcotest.failf "reachable differs at d=%d v=%d" d v;
              if Solver.next_hop r_ws v <> Solver.next_hop fresh v then
                Alcotest.failf "next_hop differs at d=%d v=%d" d v;
              if Solver.class_of r_ws v <> Solver.class_of fresh v then
                Alcotest.failf "class differs at d=%d v=%d" d v;
              if Solver.length r_ws v <> Solver.length fresh v then
                Alcotest.failf "length differs at d=%d v=%d" d v;
              let p_ws = Solver.path r_ws v and p_fresh = Solver.path fresh v in
              if p_ws <> p_fresh then
                Alcotest.failf "path differs at d=%d v=%d" d v;
              (* iter_path must visit exactly the path nodes in order. *)
              let visited = ref [] in
              Solver.iter_path r_ws v (fun x -> visited := x :: !visited);
              let visited = List.rev !visited in
              (match p_ws with
              | None ->
                if visited <> [] then
                  Alcotest.failf "iter_path visited unreachable v=%d" v
              | Some p ->
                if visited <> p then
                  Alcotest.failf "iter_path mismatch at d=%d v=%d" d v)
            done
          done)
        sizes;
      true)

(* The streaming analyze must be invariant in the domain count — same
   stats record at 1 domain and on a pool. *)
let analyze_domain_invariant =
  QCheck.Test.make ~name:"Static.analyze: 1 domain == 4 domains" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      let n = 25 + (seed mod 15) in
      let topo = Helpers.random_as_topology ~seed ~n in
      let sources = [ 0; 3 mod n; 7 mod n; n - 1 ] |> List.sort_uniq compare in
      let seq =
        Pool.with_size 1 (fun () -> Centaur.Static.analyze topo ~sources)
      in
      let par =
        Pool.with_size 4 (fun () -> Centaur.Static.analyze topo ~sources)
      in
      seq = par)

let suite =
  [ QCheck_alcotest.to_alcotest packed_matches_reference;
    QCheck_alcotest.to_alcotest diff_apply_matches_reference;
    QCheck_alcotest.to_alcotest workspace_solver_matches_fresh;
    QCheck_alcotest.to_alcotest analyze_domain_invariant;
    Alcotest.test_case "BuildGraph at the id limit" `Quick
      test_build_graph_at_id_limit ]
