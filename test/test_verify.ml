(* Convergence safety analyzer: golden verdicts for the classic
   gadgets, the certify-vs-oscillate QCheck harness, the committed
   verify-corpus, and the Stable.Diverged escape paths the analyzer's
   verdicts are cross-checked against. *)

open Helpers

let compile_gadget (g : Verify.Gadgets.gadget) =
  match
    Policy.compile ~num_nodes:(Topology.num_nodes g.topo) g.config
  with
  | Ok p -> p
  | Error msg -> Alcotest.failf "%s: bad gadget config: %s" g.name msg

let analyze_gadget g =
  Verify.Dispute.analyze ~policy:(compile_gadget g) g.Verify.Gadgets.topo

(* Engine protocols the harness cross-checks verdicts against; ospf is
   policy-free so there is nothing to verify there. *)
let protocols = [ "centaur"; "bgp"; "bgp-rcn" ]

let cold_started ?max_events name ~policy topo =
  match Protocols.Proto_table.find name with
  | None -> Alcotest.failf "unknown protocol %s" name
  | Some network ->
    let runner = network ~policy topo in
    ignore (runner.Sim.Runner.cold_start ?max_events ());
    runner

(* --- golden analyzer output for the classic gadgets ------------------- *)

(* Builder-made configs carry no source lines, so no [line N] markers
   here; the verify-corpus .expect files pin the annotated form. *)
let golden =
  [ ( "disagree",
      "dispute wheel on destination 0 (2 hubs):\n\
      \  node 1: rim 1>2>0 (pref 100, peer-route) over spoke 1>0 (pref 0, \
       customer-route)\n\
      \  node 2: rim 2>1>0 (pref 100, peer-route) over spoke 2>0 (pref 0, \
       customer-route)\n" );
    ( "bad-gadget",
      "dispute wheel on destination 0 (3 hubs):\n\
      \  node 1: rim 1>2>0 (pref 100, peer-route) over spoke 1>0 (pref 0, \
       customer-route)\n\
      \  node 2: rim 2>3>0 (pref 100, peer-route) over spoke 2>0 (pref 0, \
       customer-route)\n\
      \  node 3: rim 3>1>0 (pref 100, peer-route) over spoke 3>0 (pref 0, \
       customer-route)\n" );
    ( "wedgie",
      "dispute wheel on destination 0 (2 hubs):\n\
      \  node 1: rim 1>2>3>0 (pref 100, provider-route) over spoke 1>0 \
       (pref 0, customer-route)\n\
      \  node 2: rim 2>1>0 (pref 0, customer-route) over spoke 2>3>0 \
       (pref 0, peer-route)\n" ) ]

let test_gadget_golden () =
  List.iter
    (fun (g : Verify.Gadgets.gadget) ->
      let expected = List.assoc g.name golden in
      Alcotest.(check string)
        g.name expected
        (Verify.Dispute.render (analyze_gadget g)))
    (Verify.Gadgets.all ())

let test_gadget_monotonicity_fails () =
  (* Every gadget's algebra must flunk strict monotonicity on the
     disputed destination — that is what sends the analyzer into the
     wheel search in the first place. *)
  List.iter
    (fun (g : Verify.Gadgets.gadget) ->
      let alg = Verify.Algebra.create ~policy:(compile_gadget g) g.topo in
      let enum = Verify.Algebra.enumerate alg ~dest:g.dest in
      match Verify.Algebra.strict_monotonicity alg enum with
      | Verify.Algebra.Fails _ -> ()
      | Verify.Algebra.Holds | Verify.Algebra.Unknown _ ->
        Alcotest.failf "%s: strict monotonicity did not fail" g.name)
    (Verify.Gadgets.all ())

(* --- the one preference order ------------------------------------------ *)

(* Routes resident at one node: small key ranges so that every key of
   the order ties often enough to reach the next one. *)
let gen_resident ~node =
  let open QCheck.Gen in
  let* pref = int_bound 2 in
  let* cls = oneofl Gao_rexford.[ Origin; Cust; Peer_r; Prov ] in
  let* len = 1 -- 4 in
  let* next_hop = int_bound 5 in
  let* via_sibling = bool in
  return
    { Verify.Algebra.node;
      path = [ node; next_hop ];
      cand = { Gao_rexford.pref; cls; len; next_hop; via_sibling } }

let preference_order_laws =
  QCheck.Test.make
    ~name:"preference order antisymmetric, transitive, refines lambda"
    ~count:(qcheck_count 500)
    (QCheck.make
       QCheck.Gen.(
         let* discipline =
           oneofl Gao_rexford.[ Standard; Class_only; Diverse; Arbitrary ]
         in
         let* node = int_bound 7 in
         let* dest = int_bound 7 in
         let* a = gen_resident ~node in
         let* b = gen_resident ~node in
         let* c = gen_resident ~node in
         return (discipline, node, dest, a, b, c)))
    (fun (discipline, node, dest, a, b, c) ->
      let alg =
        Verify.Algebra.create ~discipline (Topology.create ~n:8 [])
      in
      let cmp (x : Verify.Algebra.route) (y : Verify.Algebra.route) =
        Gao_rexford.compare_routes discipline ~chooser:node ~dest x.cand
          y.cand
      in
      let sign v = compare v 0 in
      let antisymmetric x y = sign (cmp x y) = -sign (cmp y x) in
      let transitive x y z =
        (not (cmp x y <= 0 && cmp y z <= 0)) || cmp x z <= 0
      in
      let refines_lambda x y =
        cmp x y >= 0 || Verify.Algebra.compare_rank alg x y <= 0
      in
      let prefer_is_order x y =
        Verify.Algebra.prefer alg ~dest x y = (cmp x y < 0)
      in
      List.for_all
        (fun (x, y) ->
          antisymmetric x y && refines_lambda x y && prefer_is_order x y)
        [ (a, b); (b, a); (a, c); (c, a); (b, c); (c, b) ]
      && List.for_all
           (fun (x, y, z) -> transitive x y z)
           [ (a, b, c); (a, c, b); (b, a, c); (b, c, a); (c, a, b); (c, b, a) ])

let test_default_policy_certificates () =
  (* A clean hierarchy earns the structural certificate... *)
  let hierarchy =
    Topology.create ~n:4
      [ (0, 1, Relationship.Provider, 1.0);
        (1, 2, Relationship.Provider, 1.0);
        (2, 3, Relationship.Peer, 1.0) ]
  in
  (match Verify.Dispute.analyze hierarchy with
  | Verify.Dispute.Certified Verify.Dispute.Gao_rexford_structure -> ()
  | v ->
    Alcotest.failf "hierarchy: expected structural certificate, got %s"
      (Verify.Dispute.render v));
  (* ...a customer cycle cannot (cyclic hierarchy), but default
     preferences are still strictly monotone. *)
  let cycle =
    Topology.create ~n:3
      [ (0, 1, Relationship.Customer, 1.0);
        (1, 2, Relationship.Customer, 1.0);
        (2, 0, Relationship.Customer, 1.0) ]
  in
  match Verify.Dispute.analyze cycle with
  | Verify.Dispute.Certified (Verify.Dispute.Strict_monotonicity _) -> ()
  | v ->
    Alcotest.failf "cycle: expected monotonicity certificate, got %s"
      (Verify.Dispute.render v)

(* --- claimed originations ---------------------------------------------- *)

let compile_config ~n text =
  match Result.bind (Policy.parse text) (Policy.compile ~num_nodes:n) with
  | Ok p -> p
  | Error msg -> Alcotest.failf "config %S: %s" text msg

let show p = String.concat ">" (List.map string_of_int p)

let selection (runner : Sim.Runner.t) ~src ~dest =
  match runner.path ~src ~dest with Some p -> show p | None -> "none"

let enumerated_paths ~policy topo ~dest =
  let enum =
    Verify.Algebra.enumerate (Verify.Algebra.create ~policy topo) ~dest
  in
  Array.map
    (List.map (fun (r : Verify.Algebra.route) -> show r.path))
    enum.Verify.Algebra.routes

(* The analyzer seeds a claim as the route the engines select: the
   claimer's one-hop [claimer; dest], class Origin, and every engine
   exports a route at the class it selected it with.

   First input: node 0 is node 1's provider, node 2 node 1's customer,
   and node 2 claims node 0's prefix. BGP selects 1>2>0 at node 1,
   which the enumeration must hold, and no route may reach node 0
   itself.

   Second input: 0 is 2's customer, 2 and 3 are 1's providers, and node
   1 claims 0 but prefers the provider route 1>2>0 on import. That route
   is a provider route, which 1 may not export to its provider 3: only
   the claim, 3>1>0, is permitted there, and no engine selects it. *)
let test_claimed_origination () =
  let topo () =
    Topology.create ~n:3
      [ (1, 0, Relationship.Provider, 1.0);
        (1, 2, Relationship.Customer, 1.0) ]
  in
  let policy = compile_config ~n:3 "node 2 { originate 0 }" in
  let paths = enumerated_paths ~policy (topo ()) ~dest:0 in
  let holds node path =
    Alcotest.(check bool)
      (Printf.sprintf "%s at node %d" path node)
      true
      (List.mem path paths.(node))
  in
  holds 1 "1>2>0";
  holds 2 "2>0";
  Alcotest.(check (list string)) "node 0" [ "0" ] paths.(0);
  List.iter
    (fun name ->
      let selected =
        selection (cold_started name ~policy (topo ())) ~src:1 ~dest:0
      in
      Alcotest.(check string) (name ^ " selects") "1>2>0" selected;
      holds 1 selected)
    [ "bgp"; "bgp-rcn" ];
  let topo () =
    Topology.create ~n:4
      [ (2, 0, Relationship.Customer, 1.0);
        (1, 2, Relationship.Provider, 1.0);
        (1, 3, Relationship.Provider, 1.0) ]
  in
  let policy =
    compile_config ~n:4
      "node 1 { originate 0  import from provider { match dest in { 0 } -> \
       pref 6 } }"
  in
  let paths = enumerated_paths ~policy (topo ()) ~dest:0 in
  Alcotest.(check (list string)) "node 3" [ "3>1>0" ] paths.(3);
  List.iter
    (fun name ->
      let runner = cold_started name ~policy (topo ()) in
      Alcotest.(check string)
        (name ^ " at node 1") "1>2>0"
        (selection runner ~src:1 ~dest:0);
      Alcotest.(check string)
        (name ^ " at node 3") "none"
        (selection runner ~src:3 ~dest:0))
    protocols

(* --- committed corpus: .topo + .conf must keep rendering .expect ------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_corpus () =
  let dir = "verify-corpus" in
  let cases =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".conf")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length cases >= 6);
  List.iter
    (fun f ->
      let base = Filename.chop_suffix f ".conf" in
      let topo =
        match Topo_io.load (Filename.concat dir (base ^ ".topo")) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "%s.topo: %s" base msg
      in
      let policy =
        match
          Result.bind
            (Policy.parse_file (Filename.concat dir f))
            (Policy.compile ~num_nodes:(Topology.num_nodes topo))
        with
        | Ok p -> p
        | Error msg -> Alcotest.failf "%s.conf: %s" base msg
      in
      let rendered =
        Verify.Dispute.render (Verify.Dispute.analyze ~policy topo)
      in
      Alcotest.(check string)
        base
        (read_file (Filename.concat dir (base ^ ".expect")))
        rendered)
    cases

(* --- certified => quiesces -------------------------------------------- *)

(* The analyzer's core soundness promise: a certified configuration
   never diverges — not in any of the three policy-aware protocol
   engines, and not in the sequential stable solver. Random topologies,
   random configurations from both generator modes (the unsafe mode
   also yields certified samples; they must honor the promise too). *)
let certified_implies_quiescent =
  QCheck.Test.make ~name:"analyzer-certified => engine quiesces"
    ~count:(qcheck_count 15)
    QCheck.(int_bound 100_000)
    (fun seed ->
      let topo = random_as_topology ~seed ~n:16 in
      let rng = Rng.create (seed + 31) in
      let config =
        Verify.Gadgets.random_config rng topo ~safe:(seed mod 2 = 0)
      in
      let policy =
        match Policy.compile ~num_nodes:16 config with
        | Ok p -> p
        | Error msg -> QCheck.Test.fail_reportf "bad config: %s" msg
      in
      if not (Verify.Dispute.is_certified (Verify.Dispute.analyze ~policy topo))
      then true (* vacuous: nothing is promised for uncertified configs *)
      else begin
        List.iter
          (fun proto ->
            match cold_started ~max_events:20_000 proto ~policy topo with
            | (_ : Sim.Runner.t) -> ()
            | exception Sim.Engine.Diverged _ ->
              QCheck.Test.fail_reportf
                "certified config diverged under %s (seed %d)" proto seed)
          protocols;
        let ws = Stable.create_workspace () in
        for dest = 0 to 15 do
          match Stable.to_dest_with ws topo dest ~policy with
          | (_ : Stable.routes) -> ()
          | exception Stable.Diverged ->
            QCheck.Test.fail_reportf
              "certified config diverged in Stable (seed %d, dest %d)" seed
              dest
        done;
        true
      end)

(* --- flagged wheel => reproducible oscillation ------------------------ *)

(* The odd-ring BAD GADGET family has no stable state at all, so the
   converse direction is schedule-independent: the analyzer must flag
   a wheel, every bounded engine run must blow its event budget, and
   the stable solver must raise. (DISAGREE and the wedgie also carry
   wheels but have stable states some schedules reach — those live in
   the golden tests above, not here.) *)
let flagged_family_oscillates =
  QCheck.Test.make ~name:"analyzer-flagged bad-gadget family oscillates"
    ~count:(qcheck_count 8)
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Verify.Gadgets.bad_gadget_family ~seed in
      let policy = compile_gadget g in
      (match Verify.Dispute.analyze ~policy g.topo with
      | Verify.Dispute.Wheel w ->
        if w.Verify.Dispute.dest <> g.dest then
          QCheck.Test.fail_reportf "%s: wheel on wrong destination" g.name
      | v ->
        QCheck.Test.fail_reportf "%s: expected a wheel, got %s" g.name
          (Verify.Dispute.render v));
      List.iter
        (fun proto ->
          match cold_started ~max_events:30_000 proto ~policy g.topo with
          | (_ : Sim.Runner.t) ->
            QCheck.Test.fail_reportf "%s: quiesced under %s" g.name proto
          | exception Sim.Engine.Diverged _ -> ())
        [ "centaur"; "bgp" ];
      (match Stable.to_dest g.topo g.dest ~policy with
      | (_ : Stable.routes) ->
        QCheck.Test.fail_reportf "%s: stable solver converged" g.name
      | exception Stable.Diverged -> ());
      true)

(* --- Stable.Diverged escape paths ------------------------------------- *)

let test_stable_diverged_raises () =
  let g = Verify.Gadgets.bad_gadget () in
  let policy = compile_gadget g in
  Alcotest.check_raises "to_dest raises" Stable.Diverged (fun () ->
      ignore (Stable.to_dest g.topo g.dest ~policy))

let test_workspace_reusable_after_diverged () =
  let g = Verify.Gadgets.bad_gadget () in
  let policy = compile_gadget g in
  let ws = Stable.create_workspace () in
  Alcotest.check_raises "to_dest_with raises" Stable.Diverged (fun () ->
      ignore (Stable.to_dest_with ws g.topo g.dest ~policy));
  (* The workspace must stay serviceable: solving a different topology
     in it afterwards matches a fresh solve. *)
  let topo = random_as_topology ~seed:5 ~n:20 in
  for dest = 0 to 19 do
    let a = Stable.to_dest_with ws topo dest in
    let b = Stable.to_dest topo dest in
    for src = 0 to 19 do
      Alcotest.(check (option int))
        (Printf.sprintf "next hop %d->%d" src dest)
        (Stable.next_hop b src) (Stable.next_hop a src)
    done
  done

let test_static_analyze_skips_diverging_dests () =
  (* Static.analyze catches Stable.Diverged internally and skips the
     offending destinations instead of blowing up the sweep. *)
  let g = Verify.Gadgets.bad_gadget () in
  let policy = compile_gadget g in
  let stats =
    Centaur.Static.analyze g.topo ~policy ~sources:[ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "sources analyzed" 4 stats.Centaur.Static.num_sources

(* --- a class change is exported ------------------------------------- *)

(* 0 and 2 are 1's providers, and node 1 claims 0 but prefers the route
   learned from 0 itself on import: the same path 1>0 as the claim, at
   the provider-route class, which 1 may not export to 2. Once link 1-0
   fails, the claim takes over the same path at class Origin, so the
   route's export must be redone although the path did not change. BGP
   then learns 2>1>0; Centaur's node 2 rejects it, since by the
   topology 0 is 1's provider. Each engine must end where a cold start
   on the final links ends. *)
let test_class_change_exported () =
  let topo ~up =
    let t =
      Topology.create ~n:3
        [ (1, 0, Relationship.Provider, 1.0);
          (1, 2, Relationship.Provider, 1.0) ]
    in
    Topology.set_up t 0 up;
    t
  in
  let policy =
    compile_config ~n:3
      "node 1 { originate 0  import from provider { match dest in { 0 } -> \
       pref 5 } }"
  in
  let selections runner =
    List.init 9 (fun i -> selection runner ~src:(i / 3) ~dest:(i mod 3))
  in
  List.iter
    (fun (name, expected) ->
      let runner = cold_started name ~policy (topo ~up:true) in
      Alcotest.(check string)
        (name ^ " cold start") "none"
        (selection runner ~src:2 ~dest:0);
      ignore (runner.Sim.Runner.flip ~link_id:0 ~up:false);
      Alcotest.(check string)
        (name ^ " after the failure") expected
        (selection runner ~src:2 ~dest:0);
      Alcotest.(check (list string))
        (name ^ " == cold start on the final links")
        (selections (cold_started name ~policy (topo ~up:false)))
        (selections runner))
    [ ("centaur", "none"); ("bgp", "2>1>0"); ("bgp-rcn", "2>1>0") ]

(* --- the engines select what the specification permits ----------------- *)

(* The seeding of "analyzer-certified => engine quiesces", over a fixed
   seed range. *)
let sweep_config seed =
  let topo = random_as_topology ~seed ~n:16 in
  let config =
    Verify.Gadgets.random_config (Rng.create (seed + 31)) topo
      ~safe:(seed mod 2 = 0)
  in
  match Policy.compile ~num_nodes:16 config with
  | Ok p -> (config, p)
  | Error msg -> Alcotest.failf "seed %d: bad config: %s" seed msg

(* Every engine on every random config of seeds 0-999: each selection
   (a node's own [[dest]] included) is a route the specification
   permits, one of its node's routes in a complete enumeration. On the
   certified configs of seeds 0-299 with no claimed origination and a
   stable solution, their next hops are [Stable]'s. *)
let test_engines_select_permitted () =
  let missing = ref [] in
  for seed = 0 to 999 do
    let _, policy = sweep_config seed in
    let topo = random_as_topology ~seed ~n:16 in
    let enums =
      Array.init 16 (fun dest ->
          Verify.Algebra.enumerate (Verify.Algebra.create ~policy topo) ~dest)
    in
    List.iter
      (fun name ->
        match
          cold_started ~max_events:200_000 name ~policy
            (random_as_topology ~seed ~n:16)
        with
        | exception Sim.Engine.Diverged _ -> ()
        | runner ->
          Array.iteri
            (fun dest (enum : Verify.Algebra.enumeration) ->
              if enum.complete then
                for src = 0 to 15 do
                  match runner.Sim.Runner.path ~src ~dest with
                  | None -> ()
                  | Some p ->
                    if
                      not
                        (List.exists
                           (fun (r : Verify.Algebra.route) ->
                             Path.equal r.path p)
                           enum.routes.(src))
                    then
                      missing :=
                        Printf.sprintf "seed %d %s %s" seed name (show p)
                        :: !missing
                done)
            enums)
      protocols
  done;
  Alcotest.(check (list string)) "selections the enumeration lacks" []
    (List.rev !missing);
  let compared = ref 0 in
  for seed = 0 to 299 do
    let config, policy = sweep_config seed in
    let topo = random_as_topology ~seed ~n:16 in
    let claims =
      List.exists
        (fun (np : Policy.node_policy) ->
          List.exists
            (function Policy.Originate _ -> true | Policy.Filter _ -> false)
            np.clauses)
        config
    in
    if
      (not claims)
      && Verify.Dispute.is_certified (Verify.Dispute.analyze ~policy topo)
    then
      match Array.init 16 (fun dest -> Stable.to_dest topo dest ~policy) with
      | exception Stable.Diverged -> ()
      | stable ->
        incr compared;
        List.iter
          (fun name ->
            let runner =
              cold_started ~max_events:200_000 name ~policy
                (random_as_topology ~seed ~n:16)
            in
            for dest = 0 to 15 do
              for src = 0 to 15 do
                Alcotest.(check (option int))
                  (Printf.sprintf "seed %d %s next hop %d->%d" seed name src
                     dest)
                  (Stable.next_hop stable.(dest) src)
                  (runner.Sim.Runner.next_hop ~src ~dest)
              done
            done)
          protocols
  done;
  Alcotest.(check int) "certified claim-free configs" 162 !compared

(* --- a node's own prefix leaves through its export chain --------------- *)

(* Node 0's provider is 1, 1's provider is 2, and node 0's export chain
   withholds its own prefix from its provider: the specification gives
   1 and 2 no route to 0. While node 0 leaks (its chain overridden to
   export everything) they hold 1>0 and 2>1>0, and once the leak clears
   no route again. In each phase every engine holds [Stable]'s routes. *)
let test_own_prefix_exported () =
  let topo () =
    Topology.create ~n:3
      [ (0, 1, Relationship.Provider, 1.0);
        (1, 2, Relationship.Provider, 1.0) ]
  in
  let routes select = List.init 9 (fun i -> select ~src:(i / 3) ~dest:(i mod 3)) in
  let stable ~policy =
    let topo = topo () in
    routes (fun ~src ~dest ->
        match Stable.path (Stable.to_dest topo dest ~policy) src with
        | Some p -> show p
        | None -> "none")
  in
  List.iter
    (fun name ->
      let policy =
        compile_config ~n:3
          "node 0 { export to provider { match dest in { 0 } -> deny } }"
      in
      let runner = cold_started name ~policy (topo ()) in
      let phase what route_2 =
        let expected = stable ~policy in
        Alcotest.(check string) ("specification 2->0 " ^ what) route_2
          (List.nth expected 6);
        Alcotest.(check (list string)) (name ^ " " ^ what) expected
          (routes (selection runner))
      in
      phase "after cold start" "none";
      Policy.set_leak policy ~node:0 true;
      runner.Sim.Runner.on_policy_change [ 0 ];
      ignore (runner.Sim.Runner.run_to_quiescence ());
      phase "during the leak" "2>1>0";
      Policy.set_leak policy ~node:0 false;
      runner.Sim.Runner.on_policy_change [ 0 ];
      ignore (runner.Sim.Runner.run_to_quiescence ());
      phase "after the leak" "none")
    protocols

let suite =
  [ Alcotest.test_case "gadget golden renders" `Quick test_gadget_golden;
    Alcotest.test_case "gadget monotonicity fails" `Quick
      test_gadget_monotonicity_fails;
    Alcotest.test_case "default-policy certificates" `Quick
      test_default_policy_certificates;
    Alcotest.test_case "verify corpus" `Quick test_corpus;
    QCheck_alcotest.to_alcotest preference_order_laws;
    QCheck_alcotest.to_alcotest certified_implies_quiescent;
    QCheck_alcotest.to_alcotest flagged_family_oscillates;
    Alcotest.test_case "Stable.Diverged raises" `Quick
      test_stable_diverged_raises;
    Alcotest.test_case "workspace reusable after Diverged" `Quick
      test_workspace_reusable_after_diverged;
    Alcotest.test_case "Static.analyze skips diverging dests" `Quick
      test_static_analyze_skips_diverging_dests;
    Alcotest.test_case "claimed origination" `Quick test_claimed_origination;
    Alcotest.test_case "a class change is exported" `Quick
      test_class_change_exported;
    Alcotest.test_case "engines select what the specification permits"
      `Quick test_engines_select_permitted;
    Alcotest.test_case "a node's own prefix leaves through its export chain"
      `Quick test_own_prefix_exported ]
