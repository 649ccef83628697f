(* Delta-first equivalence obligations: after an arbitrary churn of link
   flips (singles and correlated bursts), the staged incremental
   pipelines must hold exactly the forwarding state a from-scratch
   instance computes on the final topology — same next-hop table, same
   selected paths — and the [incremental:false] bench baselines must
   agree with the incremental modes step for step. *)

open Helpers

(* Toggle a few links, mixing lone flips with simultaneous bursts so the
   engine's same-timestamp batching is exercised, mirroring the same
   churn onto [state]. *)
let apply_churn rng (runner : Sim.Runner.t) state =
  let num_links = Array.length state in
  let all_links = Array.init num_links (fun i -> i) in
  let events = 2 + Rng.int rng 5 in
  for _ = 1 to events do
    if Rng.bool rng then begin
      let k = 1 + Rng.int rng 3 in
      let links = Rng.sample rng k all_links in
      let changes =
        Array.to_list links
        |> List.map (fun l ->
               state.(l) <- not state.(l);
               (l, state.(l)))
      in
      flip_many runner changes
    end
    else begin
      let l = Rng.int rng num_links in
      state.(l) <- not state.(l);
      ignore (runner.Sim.Runner.flip ~link_id:l ~up:state.(l))
    end
  done

let same_forwarding n (a : Sim.Runner.t) (b : Sim.Runner.t) =
  let ok = ref true in
  for src = 0 to n - 1 do
    for dest = 0 to n - 1 do
      if src <> dest then begin
        if a.Sim.Runner.next_hop ~src ~dest <> b.Sim.Runner.next_hop ~src ~dest
        then ok := false;
        if
          not
            (Option.equal Path.equal
               (a.Sim.Runner.path ~src ~dest)
               (b.Sim.Runner.path ~src ~dest))
        then ok := false
      end
    done
  done;
  !ok

let nodes = 12

(* Churn one instance, then cold-start a second instance directly on the
   final link state: identical forwarding tables required. The churned
   instance runs traced, and the whole event stream must satisfy the
   Obs.Check invariants — a second, orthogonal oracle on the same runs. *)
let churn_vs_fresh ~name make_runner =
  QCheck.Test.make ~name:(name ^ ": churned == fresh cold start")
    ~count:(qcheck_count 12)
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo = random_brite ~seed ~n:nodes ~m:2 in
      let trace = Obs.Trace.create () in
      let runner = make_runner ~trace topo in
      ignore (runner.Sim.Runner.cold_start ());
      let state = Array.make (Topology.num_links topo) true in
      apply_churn (Rng.create (seed + 17)) runner state;
      Obs.Check.expect_ok ~what:(name ^ " churn trace") trace;
      let fresh_topo = random_brite ~seed ~n:nodes ~m:2 in
      Array.iteri
        (fun l up -> if not up then Topology.set_up fresh_topo l false)
        state;
      let fresh = make_runner ~trace:Obs.Trace.none fresh_topo in
      ignore (fresh.Sim.Runner.cold_start ());
      same_forwarding nodes runner fresh)

(* Drive the incremental pipeline and its from-scratch twin through the
   identical churn: they must agree after every single step. *)
let incremental_vs_full ~name make_runner =
  QCheck.Test.make ~name:(name ^ ": incremental == full recompute")
    ~count:(qcheck_count 12)
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo_i = random_brite ~seed ~n:nodes ~m:2 in
      let topo_f = random_brite ~seed ~n:nodes ~m:2 in
      let trace = Obs.Trace.create () in
      let incr = make_runner ~incremental:true ~trace topo_i in
      let full = make_runner ~incremental:false ~trace:Obs.Trace.none topo_f in
      ignore (incr.Sim.Runner.cold_start ());
      ignore (full.Sim.Runner.cold_start ());
      let state_i = Array.make (Topology.num_links topo_i) true in
      let state_f = Array.make (Topology.num_links topo_f) true in
      let ok = ref (same_forwarding nodes incr full) in
      for round = 0 to 3 do
        let seed' = (seed * 31) + round in
        apply_churn (Rng.create seed') incr state_i;
        apply_churn (Rng.create seed') full state_f;
        if not (same_forwarding nodes incr full) then ok := false
      done;
      Obs.Check.expect_ok ~what:(name ^ " incremental trace") trace;
      !ok)

(* The changed-destination feed may over-approximate but must never miss
   a destination whose forwarding changed somewhere. *)
let changed_dests_sound ~name make_runner =
  QCheck.Test.make ~name:(name ^ ": changed_dests feed is sound")
    ~count:(qcheck_count 12)
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo = random_brite ~seed ~n:nodes ~m:2 in
      let trace = Obs.Trace.create () in
      let runner = make_runner ~trace topo in
      ignore (runner.Sim.Runner.cold_start ());
      let snapshot () =
        Array.init nodes (fun src ->
            Array.init nodes (fun dest ->
                if src = dest then None
                else runner.Sim.Runner.next_hop ~src ~dest))
      in
      let state = Array.make (Topology.num_links topo) true in
      let rng = Rng.create (seed + 23) in
      let ok = ref true in
      for _ = 0 to 4 do
        let before = snapshot () in
        ignore (runner.Sim.Runner.changed_dests ());
        let l = Rng.int rng (Array.length state) in
        state.(l) <- not state.(l);
        ignore (runner.Sim.Runner.flip ~link_id:l ~up:state.(l));
        let reported = runner.Sim.Runner.changed_dests () in
        let after = snapshot () in
        for src = 0 to nodes - 1 do
          for dest = 0 to nodes - 1 do
            if
              before.(src).(dest) <> after.(src).(dest)
              && not (List.mem dest reported)
            then ok := false
          done
        done
      done;
      Obs.Check.expect_ok ~what:(name ^ " changed_dests trace") trace;
      !ok)

let centaur ~trace topo = Protocols.Centaur_net.network ~trace topo

let bgp ~incremental ~trace topo =
  Protocols.Bgp_net.network ~incremental ~trace topo

let bgp_rcn ~trace topo = Protocols.Bgp_net.network ~rcn:true ~trace topo

let ospf ~incremental ~trace topo =
  Protocols.Ospf_net.network ~incremental ~trace topo

(* Pinned MRAI race (a churned == fresh counterexample): at t=161.348
   a delivery batch at node 10 re-selects 10,1,7 and sends it to 11
   through an open gate, while 10's flush timer toward 11, due at that
   same instant and queued behind the batch, still holds an older
   route for 7. Unless the open-gate send drops it, the timer re-sends
   it; 11 keeps the stale path, and 10's Adj-RIB-Out already records
   10,1,7, so no correction ever follows. *)
let test_bgp_mrai_same_instant () =
  let topo = random_brite ~seed:6745 ~n:nodes ~m:2 in
  let runner = bgp ~incremental:true ~trace:Obs.Trace.none topo in
  ignore (runner.Sim.Runner.cold_start ());
  ignore (runner.Sim.Runner.flip ~link_id:11 ~up:false);
  flip_many runner [ (9, false); (12, false) ];
  ignore (runner.Sim.Runner.flip ~link_id:12 ~up:true);
  check_path_opt "node 11 routes to 7 via 10" (Some [ 11; 10; 1; 7 ])
    (runner.Sim.Runner.path ~src:11 ~dest:7)

(* Deterministic spot check of the observer's verdict cache riding the
   same feed, read through its Obs.Metrics counters: a second sample
   with no traffic in between replays every verdict from cache; a wave
   touching link state forces fresh probes again. *)
let test_observer_cache () =
  let topo = random_brite ~seed:5 ~n:10 ~m:2 in
  let runner = centaur ~trace:Obs.Trace.none topo in
  ignore (runner.Sim.Runner.cold_start ());
  let pairs = [ (0, 7); (2, 9); (4, 1) ] in
  let metrics = Obs.Metrics.create () in
  let obs = Faults.Observer.create ~metrics topo ~pairs ~sample_every:5.0 in
  let fresh () =
    Obs.Metrics.value (Obs.Metrics.counter metrics "observer.fresh_probes")
  and cached () =
    Obs.Metrics.value (Obs.Metrics.counter metrics "observer.cached_probes")
  in
  Faults.Observer.refresh_truth obs;
  Faults.Observer.sample obs runner ~now:0.0;
  let fresh0 = fresh () and cached0 = cached () in
  Alcotest.(check int) "first sample probes fresh" 3 fresh0;
  Alcotest.(check int) "first sample caches nothing" 0 cached0;
  Faults.Observer.sample obs runner ~now:5.0;
  let fresh1 = fresh () and cached1 = cached () in
  Alcotest.(check int) "quiet sample all cached" 3 (cached1 - cached0);
  Alcotest.(check int) "quiet sample no fresh walks" fresh0 fresh1;
  (* The next fault wave invalidates the verdict cache wholesale. *)
  ignore
    (Faults.Delta_wave.apply (Faults.Delta_wave.create ()) topo runner
       [ Faults.Scenario.Set_links [ (0, false) ] ]);
  Faults.Observer.refresh_truth obs;
  Faults.Observer.sample obs runner ~now:10.0;
  let fresh2 = fresh () in
  Alcotest.(check int) "stale view re-probes everything" (fresh1 + 3) fresh2

(* Overlapping churn: groups of link toggles injected a few
   milliseconds apart, without waiting for quiescence, so MRAI timers,
   floods and delta waves from one change are still in flight when the
   next lands. The churned instance must still pass the trace checker
   and end with a fresh cold start's forwarding on the final link
   state. BGP-RCN is left out: its stale root causes (ROADMAP item 1)
   leave it off-spec on some of these schedules. *)
let overlapping_churn_vs_fresh ~name make_runner =
  QCheck.Test.make ~name:(name ^ ": overlapping churn == fresh cold start")
    ~count:(qcheck_count 12)
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 31) in
      let n = Rng.int_in rng 12 16 in
      let topo = random_brite ~seed ~n ~m:2 in
      let trace = Obs.Trace.create () in
      let runner = make_runner ~trace topo in
      ignore (runner.Sim.Runner.cold_start ());
      let state = Array.make (Topology.num_links topo) true in
      let all_links = Array.init (Array.length state) (fun i -> i) in
      for _ = 1 to Rng.int_in rng 3 6 do
        let links = Rng.sample rng (Rng.int_in rng 1 3) all_links in
        runner.Sim.Runner.inject
          (Array.to_list links
          |> List.map (fun l ->
                 state.(l) <- not state.(l);
                 (l, state.(l))));
        let gap = Rng.float rng 4.0 in
        ignore (runner.Sim.Runner.run_until (runner.Sim.Runner.now () +. gap))
      done;
      ignore (runner.Sim.Runner.run_to_quiescence ());
      Obs.Check.expect_ok ~what:(name ^ " overlapping churn trace") trace;
      let fresh_topo = random_brite ~seed ~n ~m:2 in
      Array.iteri
        (fun l up -> if not up then Topology.set_up fresh_topo l false)
        state;
      let fresh = make_runner ~trace:Obs.Trace.none fresh_topo in
      ignore (fresh.Sim.Runner.cold_start ());
      same_forwarding n runner fresh)

let suite =
  [ QCheck_alcotest.to_alcotest (churn_vs_fresh ~name:"centaur" centaur);
    QCheck_alcotest.to_alcotest
      (churn_vs_fresh ~name:"bgp" (bgp ~incremental:true));
    QCheck_alcotest.to_alcotest (churn_vs_fresh ~name:"bgp-rcn" bgp_rcn);
    QCheck_alcotest.to_alcotest
      (churn_vs_fresh ~name:"ospf" (ospf ~incremental:true));
    QCheck_alcotest.to_alcotest (incremental_vs_full ~name:"bgp" bgp);
    QCheck_alcotest.to_alcotest (incremental_vs_full ~name:"ospf" ospf);
    QCheck_alcotest.to_alcotest (changed_dests_sound ~name:"centaur" centaur);
    QCheck_alcotest.to_alcotest
      (changed_dests_sound ~name:"bgp" (bgp ~incremental:true));
    QCheck_alcotest.to_alcotest
      (changed_dests_sound ~name:"ospf" (ospf ~incremental:true));
    Alcotest.test_case "bgp: MRAI timer vs same-instant send" `Quick
      test_bgp_mrai_same_instant;
    Alcotest.test_case "observer verdict cache" `Quick test_observer_cache;
    QCheck_alcotest.to_alcotest
      (overlapping_churn_vs_fresh ~name:"centaur" centaur);
    QCheck_alcotest.to_alcotest
      (overlapping_churn_vs_fresh ~name:"bgp" (bgp ~incremental:true));
    QCheck_alcotest.to_alcotest
      (overlapping_churn_vs_fresh ~name:"ospf" (ospf ~incremental:true)) ]
