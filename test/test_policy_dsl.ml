(* The policy DSL: parser round-trips, the committed error-message
   corpus, the chain walk against the reference interpreter of
   [Policy_oracle] (QCheck, cited lines included), zero allocation on
   the evaluation path, the default-policy == Gao-Rexford guarantee,
   and an end-to-end check that a non-default policy actually changes
   what the protocol nets route. *)

let classes =
  [ Gao_rexford.Origin; Gao_rexford.Cust; Gao_rexford.Peer_r;
    Gao_rexford.Prov ]

let roles = Relationship.all

(* --- parsing and semantics ------------------------------------------- *)

let rich_config =
  {|
# exercises every construct once
node 0 {
  originate 9 7 9
  import from customer {
    match dest in { 1..3 5 } and not path through 4 -> pref 300 permit
    match class in { provider peer } or longer than 5 -> deny
    default -> tag 3
  }
  export to peer {
    match tag 3 -> deny
    default -> permit
  }
  export to neighbor 2 {
    match dest in { 9 } -> deny
  }
}
node 5 {
  import from any {
    match not ( class in { customer } and path through 0 ) -> pref 10
  }
}
|}

let compile_rich () =
  match Policy.parse rich_config with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok config -> (
    match Policy.compile ~num_nodes:16 config with
    | Error e -> Alcotest.failf "compile failed: %s" e
    | Ok c -> c)

let test_parse_and_semantics () =
  let c = compile_rich () in
  Alcotest.(check bool) "not default" false (Policy.is_default c);
  Alcotest.(check (list int)) "origins sorted, deduped" [ 7; 9 ]
    (Policy.origins c ~node:0);
  Alcotest.(check bool) "claims" true (Policy.claims_origin c ~node:0 ~dest:7);
  (* Customer-import chain: dest 2 off node 4 gets pref 300. *)
  Alcotest.(check int) "pref override" 300
    (Policy.import_eval c ~node:0 ~peer:1 ~role:Relationship.Customer ~dest:2
       ~cls:Gao_rexford.Cust ~len:2 ~path:[ 0; 1; 2 ]);
  (* Same dest but the path goes through node 4: falls through to the
     chain default (tag 3, then accept at pref 0). *)
  Alcotest.(check int) "path-through excludes" 0
    (Policy.import_eval c ~node:0 ~peer:1 ~role:Relationship.Customer ~dest:2
       ~cls:Gao_rexford.Cust ~len:3 ~path:[ 0; 1; 4; 2 ]);
  (* Provider-class routes from customers are denied. *)
  Alcotest.(check int) "class deny" (-1)
    (Policy.import_eval c ~node:0 ~peer:1 ~role:Relationship.Customer ~dest:8
       ~cls:Gao_rexford.Prov ~len:2 ~path:[ 0; 1; 8 ]);
  (* The import chain only applies to customers; a peer's offer falls
     through to the built-in default. *)
  Alcotest.(check int) "other-role default" 0
    (Policy.import_eval c ~node:0 ~peer:1 ~role:Relationship.Peer ~dest:8
       ~cls:Gao_rexford.Prov ~len:2 ~path:[ 0; 1; 8 ]);
  (* Tags are chain-local scratch: the export chain's [match tag 3]
     cannot see the import chain's tag, so exports to peers fall through
     to the explicit permit — even for a provider-class route the
     Gao-Rexford default would block. *)
  Alcotest.(check bool) "custom export permit overrides GR" true
    (Policy.export_ok c ~node:0 ~peer:3 ~role:Relationship.Peer ~dest:8
       ~cls:Gao_rexford.Prov ~len:2 ~path:[ 0; 1; 8 ]);
  (* The neighbor clause replaces role-keyed chains for that peer. *)
  Alcotest.(check bool) "neighbor export deny" false
    (Policy.export_ok c ~node:0 ~peer:2 ~role:Relationship.Customer ~dest:9
       ~cls:Gao_rexford.Origin ~len:1 ~path:[ 0; 9 ]);
  (* node 5's negated predicate: anything that is not a customer-class
     route through 0 gets pref 10. *)
  Alcotest.(check int) "not/and" 10
    (Policy.import_eval c ~node:5 ~peer:6 ~role:Relationship.Peer ~dest:8
       ~cls:Gao_rexford.Peer_r ~len:2 ~path:[ 5; 6; 8 ]);
  Alcotest.(check int) "not/and negative case" 0
    (Policy.import_eval c ~node:5 ~peer:0 ~role:Relationship.Customer ~dest:8
       ~cls:Gao_rexford.Cust ~len:3 ~path:[ 5; 0; 8 ]);
  (* A rule's actions apply in order: the last tag action on a bit wins. *)
  let tagging actions =
    let conf =
      Printf.sprintf
        "node 0 { import from any { match any -> %s match tag 1 -> deny } }"
        actions
    in
    Policy.import_eval
      (Policy.compile_exn (Result.get_ok (Policy.parse conf)))
      ~node:0 ~peer:1 ~role:Relationship.Peer ~dest:2 ~cls:Gao_rexford.Peer_r
      ~len:2 ~path:[ 0; 1; 2 ]
  in
  Alcotest.(check int) "tag then untag" 0 (tagging "tag 1 untag 1");
  Alcotest.(check int) "untag then tag" (-1) (tagging "untag 1 tag 1")

(* The committed corpus: every config in test/policy-corpus must keep
   producing byte-identical output through parse+validate+compile — the
   same check CI runs through the [policy check] CLI. *)
let test_corpus () =
  let dir = "policy-corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".conf")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length files >= 8);
  List.iter
    (fun f ->
      let expect_file =
        Filename.concat dir (Filename.chop_suffix f ".conf" ^ ".expect")
      in
      let ic = open_in expect_file in
      let expected = input_line ic in
      close_in ic;
      let actual =
        match
          Result.bind
            (Policy.parse_file (Filename.concat dir f))
            (Policy.compile ~num_nodes:64)
        with
        | Ok c -> "ok: " ^ Policy.summary c
        | Error e -> e
      in
      Alcotest.(check string) f expected actual)
    files

(* --- QCheck: compiled chain walk == reference interpreter ------------ *)

let gen_pred =
  let open QCheck.Gen in
  sized
  @@ fix (fun self size ->
         let base =
           oneof
             [ return Policy.Any;
               (list_size (1 -- 4) (int_bound 15) >|= fun ds ->
                Policy.Dest_in ds);
               (list_size (1 -- 3) (oneofl classes) >|= fun cs ->
                Policy.Class_in cs);
               (int_bound 15 >|= fun v -> Policy.Path_through v);
               (int_bound 6 >|= fun l -> Policy.Longer_than l);
               (int_bound 7 >|= fun t -> Policy.Has_tag t) ]
         in
         if size <= 1 then base
         else
           frequency
             [ (3, base);
               (1, self (size / 2) >|= fun p -> Policy.Not p);
               ( 1,
                 pair (self (size / 2)) (self (size / 2)) >|= fun (a, b) ->
                 Policy.And (a, b) );
               ( 1,
                 pair (self (size / 2)) (self (size / 2)) >|= fun (a, b) ->
                 Policy.Or (a, b) ) ])

let gen_actions =
  let open QCheck.Gen in
  let modifier =
    oneof
      [ (int_bound 500 >|= fun p -> Policy.Pref p);
        (int_bound 7 >|= fun t -> Policy.Set_tag t);
        (int_bound 7 >|= fun t -> Policy.Clear_tag t) ]
  in
  let* mods = list_size (0 -- 2) modifier in
  let* terminal = oneofl [ Some Policy.Permit; Some Policy.Deny; None ] in
  match (mods, terminal) with
  | [], None -> return [ Policy.Permit ]
  | mods, None -> return mods
  | mods, Some t -> return (mods @ [ t ])

let gen_rules =
  let open QCheck.Gen in
  list_size (1 -- 4)
    (let* guard = gen_pred in
     let* actions = gen_actions in
     (* Line 0 is a builder rule, which cites nothing. *)
     let* line = int_bound 40 in
     return { Policy.guard; actions; line })

let gen_sel =
  QCheck.Gen.(
    oneof
      [ return Policy.Any_peer;
        (oneofl roles >|= fun r -> Policy.With_role r);
        (int_bound 15 >|= fun p -> Policy.Peer p) ])

let gen_clause =
  let open QCheck.Gen in
  frequency
    [ ( 3,
        let* sel = gen_sel in
        let* rules = gen_rules in
        oneofl [ Policy.import_from sel rules; Policy.export_to sel rules ] );
      (1, list_size (1 -- 2) (int_bound 15) >|= Policy.originate) ]

let gen_config =
  let open QCheck.Gen in
  let* nodes = list_size (1 -- 3) (int_bound 15) in
  let nodes = List.sort_uniq compare nodes in
  let rec build = function
    | [] -> return []
    | n :: rest ->
      let* clauses = list_size (1 -- 3) gen_clause in
      let* tl = build rest in
      return (Policy.node n clauses :: tl)
  in
  build nodes

let gen_query =
  let open QCheck.Gen in
  let* node = int_bound 15 in
  let* peer = int_bound 15 in
  let* role = oneofl roles in
  let* dest = int_bound 15 in
  let* cls = oneofl classes in
  let* mid = list_size (0 -- 3) (int_bound 15) in
  let path = (node :: mid) @ [ dest ] in
  let len = List.length path - 1 in
  return (node, peer, role, dest, cls, len, path)

let evaluator_matches_oracle =
  QCheck.Test.make ~name:"evaluator == oracle" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_config (list_size (return 8) gen_query)))
    (fun (config, queries) ->
      match Policy.compile ~num_nodes:16 config with
      | Error _ -> true (* validation rejected it; nothing to compare *)
      | Ok c ->
        List.for_all
          (fun (node, peer, role, dest, cls, len, path) ->
            let import =
              Policy_oracle.explain_import config ~node ~peer ~role ~dest ~cls
                ~len ~path
            and export =
              Policy_oracle.explain_export config ~node ~peer ~role ~dest ~cls
                ~len ~path
            in
            Policy.import_eval c ~node ~peer ~role ~dest ~cls ~len ~path
            = fst import
            && Policy.export_ok c ~node ~peer ~role ~dest ~cls ~len ~path
               = fst export
            && Policy.explain_import c ~node ~peer ~role ~dest ~cls ~len ~path
               = import
            && Policy.explain_export c ~node ~peer ~role ~dest ~cls ~len ~path
               = export)
          queries)

(* --- evaluation allocates nothing ------------------------------------- *)

(* Every predicate and action, role chains in both directions and a
   [neighbor] chain in both directions. *)
let alloc_config =
  {|
node 0 {
  import from any {
    match dest in { 1..5 } and not path through 3 -> pref 200 tag 1
    match class in { peer provider } or longer than 3 -> untag 1 pref 50
    match tag 1 -> permit
    default -> tag 2
  }
  import from neighbor 7 {
    match dest in { 9 } -> deny
  }
  export to customer {
    match tag 2 or dest in { 4 } -> deny
    default -> permit
  }
  export to neighbor 7 {
    match longer than 2 -> deny
  }
}
|}

let test_evaluation_allocation_free () =
  let c =
    Policy.compile_exn ~num_nodes:16 (Result.get_ok (Policy.parse alloc_config))
  in
  let queries =
    Array.init 400 (fun i ->
        let peer = 1 + (i mod 8) and dest = i mod 11 in
        ( peer,
          List.nth roles (i mod 4),
          dest,
          List.nth classes (i / 4 mod 4),
          [ 0; peer; i mod 5; dest ] ))
  in
  let per_call f =
    let sweep () =
      Array.iter
        (fun (peer, role, dest, cls, path) ->
          f ~peer ~role ~dest ~cls ~len:(List.length path - 1) ~path)
        queries
    in
    (* Warm pass: faults in every code path. *)
    sweep ();
    let m0 = Gc.minor_words () in
    sweep ();
    (Gc.minor_words () -. m0) /. float_of_int (Array.length queries)
  in
  let import_words =
    per_call (fun ~peer ~role ~dest ~cls ~len ~path ->
        ignore (Policy.import_eval c ~node:0 ~peer ~role ~dest ~cls ~len ~path))
  and export_words =
    per_call (fun ~peer ~role ~dest ~cls ~len ~path ->
        ignore (Policy.export_ok c ~node:0 ~peer ~role ~dest ~cls ~len ~path))
  in
  Alcotest.(check bool)
    (Printf.sprintf "import_eval: %.4f minor words per call (budget 1.0)"
       import_words)
    true (import_words < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "export_ok: %.4f minor words per call (budget 1.0)"
       export_words)
    true (export_words < 1.0)

(* --- QCheck: the default policy is Gao-Rexford exactly ---------------- *)

let default_is_gao_rexford =
  let d = Policy.default () in
  QCheck.Test.make ~name:"default policy == hard-coded Gao-Rexford"
    ~count:300
    (QCheck.make gen_query)
    (fun (node, peer, role, dest, cls, len, path) ->
      Policy.import_eval d ~node ~peer ~role ~dest ~cls ~len ~path = 0
      && Policy.export_ok d ~node ~peer ~role ~dest ~cls ~len ~path
         = Gao_rexford.exportable ~cls ~to_role:role)

(* --- end to end: a configured policy changes what the nets route ------ *)

let test_policy_changes_routing () =
  (* 0 is 1's provider, 1 is 2's provider: a customer chain. *)
  let topo =
    Topology.create ~n:3
      [ (0, 1, Relationship.Customer, 1.0);
        (1, 2, Relationship.Customer, 1.0) ]
  in
  let conf = "node 2 { import from any { match dest in { 0 } -> deny } }" in
  let config = Result.get_ok (Policy.parse conf) in
  List.iter
    (fun proto ->
      let make = Option.get (Protocols.Proto_table.find proto) in
      let default_runner = make topo in
      ignore (default_runner.Sim.Runner.cold_start ());
      Alcotest.(check bool)
        (proto ^ " default routes 2->0") true
        (default_runner.Sim.Runner.path ~src:2 ~dest:0 <> None);
      let policy = Result.get_ok (Policy.compile ~num_nodes:3 config) in
      let runner = make ~policy topo in
      ignore (runner.Sim.Runner.cold_start ());
      Alcotest.(check bool)
        (proto ^ " denied import drops 2->0") true
        (runner.Sim.Runner.path ~src:2 ~dest:0 = None);
      Alcotest.(check bool)
        (proto ^ " other dest unaffected") true
        (runner.Sim.Runner.path ~src:2 ~dest:1 <> None))
    [ "bgp"; "centaur" ]

(* --- dest sets are bounded by the set, not by its largest id ---------- *)

(* Without [num_nodes] any id up to 2^31 - 1 compiles. A bitset sized by
   the largest id took 256 MB for this set; what the stanza adds to a
   compiled policy must stay in the hundreds of words, and evaluating
   the sparse set must still allocate nothing. *)
let test_sparse_dest_set () =
  let big = 2147483647 in
  let conf =
    Printf.sprintf
      "node 0 { import from any { match dest in { 0 %d } -> deny } }" big
  in
  let c = Policy.compile_exn (Result.get_ok (Policy.parse conf)) in
  let words =
    Obj.reachable_words (Obj.repr c)
    - Obj.reachable_words (Obj.repr (Policy.default ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d words over the default policy (budget 200)" words)
    true (words < 200);
  let pref dest =
    Policy.import_eval c ~node:0 ~peer:1 ~role:Relationship.Customer ~dest
      ~cls:Gao_rexford.Cust ~len:1 ~path:[ 0; 1 ]
  in
  List.iter
    (fun (dest, expected) ->
      Alcotest.(check int) (Printf.sprintf "dest %d" dest) expected (pref dest))
    [ (0, -1); (big, -1); (1, 0); (big - 1, 0); (1 lsl 30, 0); (12345, 0) ];
  let m0 = Gc.minor_words () in
  for dest = big - 200 to big do
    ignore (pref dest)
  done;
  Alcotest.(check bool) "sparse set evaluation allocates nothing" true
    (Gc.minor_words () -. m0 < 1.0)

let suite =
  [ Alcotest.test_case "parse + semantics" `Quick test_parse_and_semantics;
    Alcotest.test_case "error-message corpus" `Quick test_corpus;
    QCheck_alcotest.to_alcotest evaluator_matches_oracle;
    Alcotest.test_case "evaluation allocates nothing" `Quick
      test_evaluation_allocation_free;
    QCheck_alcotest.to_alcotest default_is_gao_rexford;
    Alcotest.test_case "policy changes routing" `Quick
      test_policy_changes_routing;
    Alcotest.test_case "sparse dest set stays small" `Quick
      test_sparse_dest_set ]
