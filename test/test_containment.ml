(* The adversarial scenario family end to end: route leaks and prefix
   hijacks must propagate under BGP (which trusts its sessions) and be
   contained by Centaur (which verifies every announced path against the
   baseline Gao-Rexford contract); Permission-List misconfiguration is
   Centaur's own failure mode and must heal completely. *)

let caida n = As_gen.generate (Rng.create 11) (As_gen.caida_like ~n)

let build proto ~policy topo =
  let make = Option.get (Protocols.Proto_table.find proto) in
  let runner = make ~policy topo in
  ignore (runner.Sim.Runner.cold_start ());
  runner

let all_paths runner n =
  Array.init n (fun s ->
      Array.init n (fun d ->
          if s = d then None else runner.Sim.Runner.path ~src:s ~dest:d))

let count_through paths bad =
  let c = ref 0 in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun d p ->
          match p with
          | Some p when s <> bad && d <> bad && List.mem bad p -> incr c
          | _ -> ())
        row)
    paths;
  !c

let count_routes paths =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun a p -> if p = None then a else a + 1) acc row)
    0 paths

(* First node with at least two providers: the classic multi-homed
   leaker. *)
let pick_leaker topo =
  let n = Topology.num_nodes topo in
  let providers v =
    Topology.fold_neighbors topo v ~init:0 ~f:(fun acc _ role _ ->
        if Relationship.equal role Relationship.Provider then acc + 1 else acc)
  in
  let rec go i = if i >= n || providers i >= 2 then i else go (i + 1) in
  let l = go 0 in
  Alcotest.(check bool) "found a multi-homed node" true (l < n);
  l

let max_degree_node topo =
  let best = ref 0 in
  for v = 1 to Topology.num_nodes topo - 1 do
    if Topology.full_degree topo v > Topology.full_degree topo !best then
      best := v
  done;
  !best

let drain runner = ignore (runner.Sim.Runner.run_to_quiescence ())

let test_leak () =
  let n = 60 in
  List.iter
    (fun (proto, expect_spread) ->
      let topo = caida n in
      let policy = Policy.default () in
      let runner = build proto ~policy topo in
      let leaker = pick_leaker topo in
      let baseline = all_paths runner n in
      let before = count_through baseline leaker in
      Policy.reset_rejects policy;
      Policy.set_leak policy ~node:leaker true;
      runner.Sim.Runner.on_policy_change [ leaker ];
      drain runner;
      let mid = count_through (all_paths runner n) leaker in
      if expect_spread then begin
        Alcotest.(check bool)
          (proto ^ " carries leaked routes") true (mid > before);
        Alcotest.(check int) (proto ^ " never verifies") 0
          (Policy.rejects policy)
      end
      else begin
        Alcotest.(check int) (proto ^ " contains the leak") before mid;
        Alcotest.(check bool)
          (proto ^ " verifier fires") true
          (Policy.rejects policy > 0)
      end;
      Policy.set_leak policy ~node:leaker false;
      runner.Sim.Runner.on_policy_change [ leaker ];
      drain runner;
      Alcotest.(check bool)
        (proto ^ " heals to baseline") true
        (all_paths runner n = baseline))
    [ ("bgp", true); ("centaur", false) ]

let test_hijack () =
  let n = 60 in
  List.iter
    (fun (proto, expect_spread) ->
      let topo = caida n in
      let policy = Policy.default () in
      let runner = build proto ~policy topo in
      let victim = max_degree_node topo in
      (* Any non-adjacent node works as the hijacker; take the last. *)
      let hijacker =
        let rec go v =
          if v <> victim && Topology.link_between topo v victim = None then v
          else go (v - 1)
        in
        go (n - 1)
      in
      let baseline = all_paths runner n in
      Policy.reset_rejects policy;
      Policy.set_claim policy ~node:hijacker ~dest:victim true;
      runner.Sim.Runner.on_policy_change [ hijacker ];
      drain runner;
      (* Poisoned: an honest node now "reaches" the victim via the
         hijacker. The hijacker's own selection is the forgery itself, so
         it is excluded. *)
      let poisoned =
        let c = ref 0 in
        for s = 0 to n - 1 do
          if s <> hijacker && s <> victim then
            match runner.Sim.Runner.path ~src:s ~dest:victim with
            | Some p when List.mem hijacker p -> incr c
            | _ -> ()
        done;
        !c
      in
      if expect_spread then
        Alcotest.(check bool)
          (proto ^ " spreads the forged origin") true (poisoned > 0)
      else begin
        Alcotest.(check int) (proto ^ " contains the hijack") 0 poisoned;
        Alcotest.(check bool)
          (proto ^ " verifier fires") true
          (Policy.rejects policy > 0)
      end;
      Policy.set_claim policy ~node:hijacker ~dest:victim false;
      runner.Sim.Runner.on_policy_change [ hijacker ];
      drain runner;
      Alcotest.(check bool)
        (proto ^ " heals to baseline") true
        (all_paths runner n = baseline))
    [ ("bgp", true); ("centaur", false) ]

let test_plist_misconfig () =
  let n = 60 in
  let topo = caida n in
  let policy = Policy.default () in
  let runner = build "centaur" ~policy topo in
  let bad = max_degree_node topo in
  let baseline = all_paths runner n in
  let before = count_routes baseline in
  Policy.reset_rejects policy;
  Policy.set_corrupt policy ~node:bad true;
  runner.Sim.Runner.on_policy_change [ bad ];
  drain runner;
  let mid = count_routes (all_paths runner n) in
  Alcotest.(check bool) "corrupted plists blackhole routes" true (mid < before);
  (* The verifier has nothing to reject: a missing destination looks like
     a withdrawal, not a contract violation. *)
  Alcotest.(check int) "misconfig is silent" 0 (Policy.rejects policy);
  Policy.set_corrupt policy ~node:bad false;
  runner.Sim.Runner.on_policy_change [ bad ];
  drain runner;
  Alcotest.(check bool) "full re-announce repairs everything" true
    (all_paths runner n = baseline);
  (* BGP has no Permission Lists: the same override is a no-op. *)
  let topo = caida n in
  let policy = Policy.default () in
  let runner = build "bgp" ~policy topo in
  let baseline = all_paths runner n in
  Policy.set_corrupt policy ~node:bad true;
  runner.Sim.Runner.on_policy_change [ bad ];
  drain runner;
  Alcotest.(check bool) "bgp unaffected" true (all_paths runner n = baseline)

let test_injector_policy_faults () =
  let n = 40 in
  let topo = caida n in
  let policy = Policy.default () in
  let make = Option.get (Protocols.Proto_table.find "bgp") in
  let runner = make ~policy topo in
  let scenario =
    { Faults.Scenario.name = "leak";
      seed = 5;
      horizon = 80.0;
      sample_every = 5.0;
      faults =
        [ Faults.Scenario.Route_leak { node = 0; at = 10.0; duration = 40.0 } ]
    }
  in
  let pairs = [ (1, 7); (2, 9); (3, 11) ] in
  (* Policy faults without the compiled policy are a misuse. *)
  (try
     ignore (Faults.Injector.run runner ~topo ~scenario ~pairs);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let report = Faults.Injector.run ~policy runner ~topo ~scenario ~pairs in
  Alcotest.(check bool) "samples taken" true
    (report.Faults.Observer.samples > 0);
  Alcotest.(check int) "three pairs watched" 3 report.Faults.Observer.pairs

let test_experiment_end_to_end () =
  let cfg =
    { Experiments.Config.quick with
      Experiments.Config.as_nodes = 80;
      probe_pairs = 6;
      probe_horizon = 120.0 }
  in
  let r = Experiments.Exp_containment.run cfg in
  let open Experiments.Exp_containment in
  Alcotest.(check int) "six rows" 6 (List.length r.rows);
  let get k p =
    List.find (fun row -> row.kind = k && row.protocol = p) r.rows
  in
  let leak_c = get Route_leak "centaur" and leak_b = get Route_leak "bgp" in
  Alcotest.(check int) "centaur contains the leak" 0 leak_c.radius;
  Alcotest.(check bool) "bgp radius strictly larger" true
    (leak_b.radius > leak_c.radius);
  Alcotest.(check bool) "bgp poisoned" true (leak_b.poisoned > 0);
  Alcotest.(check bool) "centaur detects" true (leak_c.detect_ms <> None);
  Alcotest.(check bool) "bgp never detects" true (leak_b.detect_ms = None);
  let hij_c = get Prefix_hijack "centaur" in
  Alcotest.(check int) "centaur contains the hijack" 0 hij_c.radius;
  List.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "row %d (%s) residual" i row.protocol)
        0 row.residual)
    r.rows;
  let rendered = render r in
  Alcotest.(check bool) "render has the leak headline" true
    (String.length rendered > 0
    &&
    let needle = "Route leak" in
    let hl = String.length rendered and nl = String.length needle in
    let rec go i =
      i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0)

let suite =
  [ Alcotest.test_case "route leak" `Quick test_leak;
    Alcotest.test_case "prefix hijack" `Quick test_hijack;
    Alcotest.test_case "plist misconfig" `Quick test_plist_misconfig;
    Alcotest.test_case "injector policy faults" `Quick
      test_injector_policy_faults;
    Alcotest.test_case "containment experiment" `Quick
      test_experiment_end_to_end ]
