(* Experiment harness plumbing: every registry entry runs end-to-end on
   a miniature configuration, renders the same output at any domain
   count, and shows the expected headline properties. *)

let tiny =
  { Experiments.Config.seed = 7;
    as_nodes = 80;
    as_sources = 6;
    brite_nodes = 30;
    flips = 3;
    fig8_sizes = [ 20; 40 ];
    fig8_events = 4;
    resilience_scenarios = 2;
    resilience_flaps = 3;
    probe_pairs = 6;
    probe_horizon = 150.0;
    scale_sizes = [ 60; 80 ];
    scale_sources = 5;
    scale_dests = 20;
    churn_rates = [ 0.4 ];
    churn_duration = 60.0;
    churn_window = 8.0;
    convergence_samples = 4;
    convergence_nodes = 12;
    emit_metrics = false;
    trace_digest = None }

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_registry_complete () =
  Alcotest.(check (list string))
    "all artifacts present"
    [ "table3"; "table4"; "table5"; "fig5"; "fig6"; "fig7"; "fig8"; "scale";
      "churnrate"; "resilience"; "containment"; "convergence";
      "ablation-mrai"; "ablation-multipath" ]
    Experiments.Registry.ids;
  Alcotest.(check bool) "find hit" true
    (Experiments.Registry.find "fig6" <> None);
  Alcotest.(check bool) "find miss" true
    (Experiments.Registry.find "fig9" = None)

let test_table3_fractions () =
  let rows = Experiments.Exp_table3.run tiny in
  Alcotest.(check int) "two topologies" 2 (List.length rows);
  List.iter
    (fun r ->
      let open Experiments.Exp_table3 in
      Alcotest.(check int) "node count" 80 r.nodes;
      Alcotest.(check bool) "links partition" true
        (r.peering + r.provider + r.sibling = r.links))
    rows;
  (* hetop must be peering-rich relative to caida. *)
  match rows with
  | [ caida; hetop ] ->
    let open Experiments.Exp_table3 in
    let frac r = float_of_int r.peering /. float_of_int r.links in
    Alcotest.(check bool) "hetop peers more" true (frac hetop > frac caida)
  | _ -> Alcotest.fail "expected two rows"

let test_table45_disciplines () =
  let rows = Experiments.Exp_table45.run tiny in
  Alcotest.(check (list string))
    "disciplines"
    [ "standard"; "arbitrary"; "class-only"; "diverse"; "vf-shortest" ]
    (List.map (fun r -> r.Experiments.Exp_table45.discipline) rows);
  let links d =
    let r =
      List.find (fun r -> r.Experiments.Exp_table45.discipline = d) rows
    in
    r.Experiments.Exp_table45.caida.Centaur.Static.avg_links
  in
  (* Everyone reaches all 79 other nodes; arbitrary is bushiest. *)
  List.iter
    (fun d -> Alcotest.(check bool) (d ^ " covers dests") true (links d >= 79.0))
    [ "standard"; "arbitrary"; "class-only" ];
  Alcotest.(check bool) "arbitrary bushiest" true
    (links "arbitrary" >= links "standard")

let test_fig5_ratio () =
  match Experiments.Exp_fig5.run tiny with
  | [ caida1; caida10; hetop1; _hetop10 ] ->
    Alcotest.(check bool) "centaur cheaper" true
      (caida1.Experiments.Exp_fig5.mean_ratio > 1.0
      && hetop1.Experiments.Exp_fig5.mean_ratio > 1.0);
    (* More prefixes per AS multiply BGP's cost, not Centaur's. *)
    Alcotest.(check bool) "prefixes widen the ratio" true
      (caida10.Experiments.Exp_fig5.mean_ratio
      > 3.0 *. caida1.Experiments.Exp_fig5.mean_ratio)
  | _ -> Alcotest.fail "expected four series"

let test_fig67_shapes () =
  let r = Experiments.Exp_fig67.run tiny in
  Alcotest.(check int) "flips recorded" 3
    (List.length r.Experiments.Exp_fig67.flipped_links);
  let faster = Experiments.Exp_fig67.centaur_faster_than_bgp r in
  Alcotest.(check bool) "centaur usually faster" true (faster >= 0.5);
  let lighter = Experiments.Exp_fig67.centaur_lighter_than_ospf r in
  Alcotest.(check bool) "centaur usually lighter than ospf" true
    (lighter >= 0.5);
  Alcotest.(check bool) "fig6 render mentions the paper" true
    (contains (Experiments.Exp_fig67.render_fig6 r) "paper");
  Alcotest.(check bool) "fig7 render mentions the paper" true
    (contains (Experiments.Exp_fig67.render_fig7 r) "82")

let test_fig8_rows () =
  let rows = Experiments.Exp_fig8.run tiny in
  Alcotest.(check (list int))
    "sweep sizes" [ 20; 40 ]
    (List.map (fun r -> r.Experiments.Exp_fig8.nodes) rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive rates" true
        (r.Experiments.Exp_fig8.centaur_msgs_per_event >= 0.0
        && r.Experiments.Exp_fig8.bgp_msgs_per_event > 0.0))
    rows

let test_ablation_mrai_monotone () =
  let rows = Experiments.Exp_ablations.run_mrai tiny in
  match rows with
  | [ r0; r10; r30 ] ->
    let open Experiments.Exp_ablations in
    Alcotest.(check (float 1e-9)) "mrai values" 0.0 r0.mrai;
    Alcotest.(check bool) "BGP slows with MRAI" true
      (r30.bgp_median_ms >= r10.bgp_median_ms
      && r10.bgp_median_ms >= r0.bgp_median_ms)
  | _ -> Alcotest.fail "expected three rows"

(* Every registry entry is a pure function of its configuration: one
   batch per pool size, every entry rendered, sequential and 4-domain
   output byte-identical. CI checks `exp all` at seed 42 the same way,
   against test/exp-baseline.txt; this runs it on the tiny config. *)
let test_registry_domain_invariant () =
  let render_all () =
    let batch = Experiments.Registry.batch tiny in
    List.map
      (fun (e : Experiments.Registry.entry) ->
        (e.Experiments.Registry.id, e.Experiments.Registry.run batch))
      Experiments.Registry.all
  in
  let seq = Pool.with_size 1 render_all in
  let par = Pool.with_size 4 render_all in
  List.iter2
    (fun (id, s) (_, p) ->
      Alcotest.(check bool) (id ^ " renders") true (String.length s > 40);
      Alcotest.(check string) (id ^ " 1 = 4 domains") s p)
    seq par

let test_churnrate_shapes () =
  let open Experiments.Exp_churnrate in
  let r = Experiments.Exp_churnrate.run tiny in
  Alcotest.(check int) "one rate x 3 protocols x 2 modes" 6
    (List.length r.cells);
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.protocol ^ " drains bounded") true
        (c.waves <= c.events);
      Alcotest.(check bool) (c.protocol ^ " latency order") true
        (c.p50 <= c.p99 && c.p99 <= c.p999);
      if not c.batched then
        Alcotest.(check int) (c.protocol ^ " no event-mode coalescing") 0
          c.cancelled)
    r.cells;
  (* Both modes of one (rate, protocol) replay the identical stream. *)
  List.iter
    (fun p ->
      let w = find_cell r ~rate:0.4 ~protocol:p ~batched:true in
      let e = find_cell r ~rate:0.4 ~protocol:p ~batched:false in
      Alcotest.(check int) (p ^ " same stream") e.events w.events;
      Alcotest.(check bool) (p ^ " batching drains less") true
        (w.waves <= e.waves))
    [ "centaur"; "bgp"; "ospf" ]

let test_resilience_shapes () =
  let open Experiments.Exp_resilience in
  let r = Experiments.Exp_resilience.run tiny in
  Alcotest.(check (list string))
    "protocol order" [ "centaur"; "bgp"; "ospf" ]
    (List.map (fun a -> a.protocol) r.rows);
  List.iter
    (fun a ->
      Alcotest.(check bool) (a.protocol ^ " availability in range") true
        (a.availability >= 0.0 && a.availability <= 1.0);
      Alcotest.(check bool) (a.protocol ^ " unavail = blackhole + loop") true
        (Float.abs (a.unavailable_ms -. (a.blackhole_ms +. a.loop_ms)) < 1e-6);
      Alcotest.(check int) (a.protocol ^ " pair samples") (2 * 6)
        (Array.length a.pair_unavail))
    r.rows;
  let find_row name = List.find (fun a -> a.protocol = name) r.rows in
  let centaur = find_row "centaur" and bgp = find_row "bgp" in
  Alcotest.(check bool) "centaur at most bgp unavailability" true
    (centaur.unavailable_ms <= bgp.unavailable_ms);
  Alcotest.(check bool) "render has headline" true
    (contains (render r) "Centaur unavailable")

let test_sample_pairs () =
  let topo = Experiments.Inputs.brite tiny in
  let pairs = Experiments.Inputs.sample_pairs tiny topo ~count:10 in
  Alcotest.(check int) "count" 10 (List.length pairs);
  Alcotest.(check int) "distinct" 10
    (List.length (List.sort_uniq compare pairs));
  List.iter
    (fun (s, d) ->
      Alcotest.(check bool) "valid pair" true
        (s <> d && s >= 0 && d >= 0 && s < Topology.num_nodes topo
        && d < Topology.num_nodes topo))
    pairs;
  Alcotest.(check bool) "deterministic" true
    (Experiments.Inputs.sample_pairs tiny topo ~count:10 = pairs)

let test_inputs_deterministic () =
  let a = Experiments.Inputs.brite tiny and b = Experiments.Inputs.brite tiny in
  Alcotest.(check string) "same topology from same seed"
    (Topo_io.to_string a) (Topo_io.to_string b);
  let sa = Experiments.Inputs.sample_sources tiny a in
  let sb = Experiments.Inputs.sample_sources tiny b in
  Alcotest.(check (list int)) "same samples" sa sb

let suite =
  [ Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "table3 fractions" `Quick test_table3_fractions;
    Alcotest.test_case "table4/5 disciplines" `Quick
      test_table45_disciplines;
    Alcotest.test_case "fig5 ratio" `Quick test_fig5_ratio;
    Alcotest.test_case "fig6/7 shapes" `Quick test_fig67_shapes;
    Alcotest.test_case "fig8 rows" `Quick test_fig8_rows;
    Alcotest.test_case "ablation mrai monotone" `Quick
      test_ablation_mrai_monotone;
    Alcotest.test_case "registry domain-invariant" `Quick
      test_registry_domain_invariant;
    Alcotest.test_case "churnrate shapes" `Quick test_churnrate_shapes;
    Alcotest.test_case "resilience shapes" `Quick test_resilience_shapes;
    Alcotest.test_case "sample pairs" `Quick test_sample_pairs;
    Alcotest.test_case "inputs deterministic" `Quick
      test_inputs_deterministic ]
