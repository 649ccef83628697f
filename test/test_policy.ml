(* Gao-Rexford policy engine: export rules, preference, class-of-path,
   valley-free checking. *)

open Gao_rexford

let test_class_rank_order () =
  Alcotest.(check bool) "origin best" true
    (class_rank Origin < class_rank Cust);
  Alcotest.(check bool) "customer over peer" true
    (class_rank Cust < class_rank Peer_r);
  Alcotest.(check bool) "peer over provider" true
    (class_rank Peer_r < class_rank Prov)

let test_export_matrix () =
  let exp cls to_role = exportable ~cls ~to_role in
  (* Customer routes go everywhere. *)
  List.iter
    (fun role ->
      Alcotest.(check bool)
        (Relationship.to_string role ^ " gets customer routes")
        true (exp Cust role))
    Relationship.all;
  (* Peer/provider routes only to customers and siblings. *)
  List.iter
    (fun cls ->
      Alcotest.(check bool) "to customer" true (exp cls Relationship.Customer);
      Alcotest.(check bool) "to sibling" true (exp cls Relationship.Sibling);
      Alcotest.(check bool) "not to peer" false (exp cls Relationship.Peer);
      Alcotest.(check bool) "not to provider" false
        (exp cls Relationship.Provider))
    [ Peer_r; Prov ]

let test_class_of_learned () =
  Alcotest.(check bool) "from customer" true
    (class_of_learned ~neighbor_role:Relationship.Customer
       ~neighbor_class:Prov
    = Cust);
  Alcotest.(check bool) "from peer" true
    (class_of_learned ~neighbor_role:Relationship.Peer ~neighbor_class:Cust
    = Peer_r);
  Alcotest.(check bool) "from provider" true
    (class_of_learned ~neighbor_role:Relationship.Provider
       ~neighbor_class:Cust
    = Prov);
  (* Sibling inherits; Origin becomes Cust. *)
  Alcotest.(check bool) "sibling inherits peer class" true
    (class_of_learned ~neighbor_role:Relationship.Sibling
       ~neighbor_class:Peer_r
    = Peer_r);
  Alcotest.(check bool) "sibling origin becomes customer" true
    (class_of_learned ~neighbor_role:Relationship.Sibling
       ~neighbor_class:Origin
    = Cust)

let test_preference () =
  let c ?(pref = 0) cls len next_hop =
    { pref; cls; len; next_hop; via_sibling = false }
  in
  let prefers ?(discipline = Standard) a b =
    compare_routes discipline ~chooser:0 ~dest:0 a b < 0
  in
  List.iter
    (fun discipline ->
      Alcotest.(check bool) "preference 1 beats preference 0" true
        (prefers ~discipline (c ~pref:1 Prov 9 9) (c Origin 1 1)))
    [ Standard; Class_only; Diverse; Arbitrary ];
  Alcotest.(check bool) "class dominates length" true
    (prefers (c Cust 9 5) (c Peer_r 1 5));
  Alcotest.(check bool) "length within class" true
    (prefers (c Cust 2 9) (c Cust 3 1));
  Alcotest.(check bool) "next hop breaks ties" true
    (prefers (c Cust 2 1) (c Cust 2 2));
  let sibling = { (c Cust 1 1) with via_sibling = true } in
  Alcotest.(check bool) "sibling-learned ranks below direct" true
    (prefers ~discipline:Class_only (c Cust 5 2) sibling);
  Alcotest.(check bool) "standard ignores the sibling flag" true
    (prefers sibling (c Cust 5 2))

(* --- the running best ---------------------------------------------------- *)

let disciplines = [ Standard; Class_only; Diverse; Arbitrary ]

(* Candidates over small key ranges, so every key of the order ties
   often enough to reach the next one. *)
let gen_candidate =
  let open QCheck.Gen in
  let* pref = int_bound 2 in
  let* cls = oneofl [ Origin; Cust; Peer_r; Prov ] in
  let* len = 0 -- 4 in
  let* next_hop = int_bound 5 in
  let* via_sibling = bool in
  return { pref; cls; len; next_hop; via_sibling }

let offer_candidate b c =
  offer b ~pref:c.pref ~cls:c.cls ~len:c.len ~next_hop:c.next_hop
    ~via_sibling:c.via_sibling

(* Model: the leader is the first candidate [compare_routes] ranks at or
   before every other, and an offer takes the lead exactly when it ranks
   strictly before every earlier one. *)
let running_best_model =
  QCheck.Test.make ~name:"running best keeps the first lowest-ranked offer"
    ~count:(Helpers.qcheck_count 500)
    (QCheck.make
       QCheck.Gen.(
         let* discipline = oneofl disciplines in
         let* chooser = int_bound 7 in
         let* dest = int_bound 7 in
         let* cands = list_size (0 -- 12) gen_candidate in
         return (discipline, chooser, dest, cands)))
    (fun (discipline, chooser, dest, cands) ->
      let cmp = compare_routes discipline ~chooser ~dest in
      let b = best discipline in
      (* A stale leader from another selection must not survive [start]. *)
      start b ~chooser:(chooser + 1) ~dest;
      ignore
        (offer b ~pref:9 ~cls:Origin ~len:0 ~next_hop:0 ~via_sibling:false);
      start b ~chooser ~dest;
      let rec takes earlier = function
        | [] -> true
        | c :: rest ->
          offer_candidate b c = List.for_all (fun e -> cmp c e < 0) earlier
          && takes (c :: earlier) rest
      in
      takes [] cands
      && leader b
         = List.find_opt (fun c -> List.for_all (fun d -> cmp c d <= 0) cands)
             cands)

(* The offers write the leader's keys in place: like [Policy.import_eval],
   they must allocate nothing, and so must [Policy.learn] under the
   default policy, which builds no path. *)
let test_running_best_allocation () =
  let cands =
    Array.of_list
      (QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:4096
         gen_candidate)
  in
  let policy = Policy.default () in
  let tail = [ 1; 2 ] in
  let per_offer f =
    (* Warm pass: faults in every code path. *)
    f ();
    let m0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. m0) /. float_of_int (Array.length cands)
  in
  List.iter
    (fun discipline ->
      let b = best discipline in
      let offers () =
        start b ~chooser:3 ~dest:4;
        Array.iter (fun c -> ignore (offer_candidate b c)) cands
      and learns () =
        start b ~chooser:0 ~dest:2;
        Array.iter
          (fun c ->
            ignore
              (Policy.learn policy b ~node:0 ~peer:(c.next_hop + 1)
                 ~role:(List.nth Relationship.all (c.len mod 4))
                 ~dest:2 ~neighbor_class:c.cls ~len:c.len ~tail))
          cands
      in
      List.iter
        (fun (what, f) ->
          let words = per_offer f in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.4f minor words per offer (budget 1.0)" what
               words)
            true (words < 1.0))
        [ ("offer", offers); ("learn", learns) ])
    disciplines

let test_path_class () =
  let topo = Fixtures.figure2a () in
  let check_cls name path expected =
    Alcotest.(check (option string))
      name (Some expected)
      (Option.map class_to_string (Path_class.class_of topo path))
  in
  check_cls "single node" [ 0 ] "origin";
  check_cls "A->B customer" [ 0; 1 ] "customer-route";
  check_cls "B->A provider" [ 1; 0 ] "provider-route";
  check_cls "A->B->D customer chain" [ 0; 1; 3 ] "customer-route";
  check_cls "D->B->A provider chain" [ 3; 1; 0 ] "provider-route";
  Alcotest.(check bool) "broken pair" true
    (Path_class.class_of topo [ 1; 2 ] = None)

let test_path_class_peer () =
  let topo = Fixtures.two_tier_peering () in
  Alcotest.(check (option string))
    "across peering" (Some "peer-route")
    (Option.map class_to_string (Path_class.class_of topo [ 0; 1; 4 ]))

let test_valley_free_verdicts () =
  let topo = Fixtures.two_tier_peering () in
  Alcotest.(check bool) "up-peer-down ok" true
    (Valley_free.is_valley_free topo [ 2; 0; 1; 4 ]);
  Alcotest.(check bool) "up-then-down ok" true
    (Valley_free.is_valley_free topo [ 2; 0; 3 ]);
  (* A genuine valley: descend to a customer, then climb back up. *)
  (match Valley_free.check topo [ 1; 4; 1; 5 ] with
  | Valley_free.Valley (4, 1) -> ()
  | Valley_free.Valley _ -> Alcotest.fail "wrong valley location"
  | Valley_free.Valley_free -> Alcotest.fail "valley accepted"
  | Valley_free.Broken_link _ -> Alcotest.fail "links exist");
  (* Two peering hops in a row are a valley. *)
  let topo3 =
    Topology.create ~n:3
      [ (0, 1, Relationship.Peer, 1.0); (1, 2, Relationship.Peer, 1.0) ]
  in
  (match Valley_free.check topo3 [ 0; 1; 2 ] with
  | Valley_free.Valley (1, 2) -> ()
  | Valley_free.Valley _ -> Alcotest.fail "wrong valley location"
  | Valley_free.Valley_free -> Alcotest.fail "double peering accepted"
  | Valley_free.Broken_link _ -> Alcotest.fail "links exist");
  (* Broken link detection. *)
  match Valley_free.check topo [ 2; 4 ] with
  | Valley_free.Broken_link (2, 4) -> ()
  | _ -> Alcotest.fail "missing link not detected"

let test_valley_free_descent () =
  let topo = Fixtures.two_tier_peering () in
  Alcotest.(check bool) "pure descent" true
    (Valley_free.is_valley_free topo [ 0; 2 ]);
  Alcotest.(check bool) "pure ascent" true
    (Valley_free.is_valley_free topo [ 2; 0 ]);
  Alcotest.(check bool) "trivial" true (Valley_free.is_valley_free topo [ 2 ])

let test_sibling_transparent_in_valley_check () =
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Sibling, 1.0);
        (1, 2, Relationship.Customer, 1.0);
        (2, 3, Relationship.Sibling, 1.0) ]
  in
  Alcotest.(check bool) "siblings transparent" true
    (Valley_free.is_valley_free topo [ 0; 1; 2; 3 ])

(* Consistency: class_of and the export rule agree with valley-freeness —
   any path whose every suffix is exportable hop by hop is valley-free. *)
let class_implies_valley_free =
  QCheck.Test.make ~name:"solver classes consistent with valley checker"
    ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let topo = Helpers.random_as_topology ~seed ~n:30 in
      let ok = ref true in
      for dest = 0 to 29 do
        let r = Solver.to_dest topo dest in
        Solver.iter_reachable r (fun src ->
            if src <> dest then
              match (Solver.path r src, Solver.class_of r src) with
              | Some p, Some cls ->
                if not (Valley_free.is_valley_free topo p) then ok := false;
                (match Path_class.class_of topo p with
                | Some cls' when cls' = cls -> ()
                | _ -> ok := false)
              | _ -> ok := false)
      done;
      !ok)

(* Independent oracle for [Valley_free.check]: walk the path once,
   splitting it into the hops before the first broken link (if any).
   After dropping sibling hops, a valley-free prefix is exactly the
   regular language [Provider* Peer? Customer*]; the first hop violating
   it is the valley edge. A valley strictly before the break wins over
   the break itself, matching traversal order. *)
let oracle_check topo path =
  let rec split acc = function
    | [] | [ _ ] -> (List.rev acc, None)
    | a :: (b :: _ as rest) -> (
      match Topology.rel topo a b with
      | None -> (List.rev acc, Some (a, b))
      | Some r -> split ((a, b, r) :: acc) rest)
  in
  let hops, broken = split [] path in
  let hops =
    List.filter (fun (_, _, r) -> r <> Relationship.Sibling) hops
  in
  let rec strip_up = function
    | (_, _, Relationship.Provider) :: rest -> strip_up rest
    | rest -> rest
  in
  let descent =
    match strip_up hops with
    | (_, _, Relationship.Peer) :: rest -> rest
    | rest -> rest
  in
  match
    List.find_opt (fun (_, _, r) -> r <> Relationship.Customer) descent
  with
  | Some (a, b, _) -> Valley_free.Valley (a, b)
  | None -> (
    match broken with
    | Some (a, b) -> Valley_free.Broken_link (a, b)
    | None -> Valley_free.Valley_free)

let neighbors_of topo v =
  Topology.fold_neighbors topo v ~init:[] ~f:(fun acc u _ _ -> u :: acc)

(* An adjacency-respecting path: start somewhere and follow the steps,
   each taken modulo the current degree. Never produces a broken link,
   so it concentrates the generator on the Valley_free/Valley frontier
   that arbitrary node lists rarely reach. *)
let walk_of topo start steps =
  let rec go v acc = function
    | [] -> List.rev (v :: acc)
    | s :: rest -> (
      match neighbors_of topo v with
      | [] -> List.rev (v :: acc)
      | ns -> go (List.nth ns (s mod List.length ns)) (v :: acc) rest)
  in
  go start [] steps

let valley_checker_matches_oracle =
  QCheck.Test.make ~name:"valley checker agrees with strip oracle"
    ~count:400
    QCheck.(
      triple (int_bound 1000)
        (list_of_size Gen.(0 -- 8) (int_bound 19))
        (list_of_size Gen.(0 -- 10) (int_bound 1000)))
    (fun (seed, raw, steps) ->
      let topo = Helpers.random_as_topology ~seed ~n:20 in
      let agree p = Valley_free.check topo p = oracle_check topo p in
      let walk = walk_of topo (seed mod 20) steps in
      agree raw && agree walk)

let suite =
  [ Alcotest.test_case "class rank order" `Quick test_class_rank_order;
    Alcotest.test_case "export matrix" `Quick test_export_matrix;
    Alcotest.test_case "class of learned" `Quick test_class_of_learned;
    Alcotest.test_case "preference" `Quick test_preference;
    Alcotest.test_case "path class" `Quick test_path_class;
    Alcotest.test_case "path class across peering" `Quick
      test_path_class_peer;
    Alcotest.test_case "valley-free verdicts" `Quick
      test_valley_free_verdicts;
    Alcotest.test_case "valley-free descent" `Quick test_valley_free_descent;
    Alcotest.test_case "sibling transparency" `Quick
      test_sibling_transparent_in_valley_check;
    QCheck_alcotest.to_alcotest class_implies_valley_free;
    QCheck_alcotest.to_alcotest valley_checker_matches_oracle;
    QCheck_alcotest.to_alcotest running_best_model;
    Alcotest.test_case "running best allocates nothing" `Quick
      test_running_best_allocation ]
