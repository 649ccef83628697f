type batch = {
  cfg : Config.t;
  fig67 : Exp_fig67.result Lazy.t;
  table45 : Exp_table45.result Lazy.t;
}

let batch cfg =
  { cfg; fig67 = lazy (Exp_fig67.run cfg); table45 = lazy (Exp_table45.run cfg) }

type entry = {
  id : string;
  title : string;
  run : batch -> string;
}

let all =
  [ { id = "table3";
      title = "Characteristics of input topologies";
      run = (fun b -> Exp_table3.render (Exp_table3.run b.cfg)) };
    { id = "table4";
      title = "Structural characteristics of P-graphs";
      run = (fun b -> Exp_table45.render_table4 (Lazy.force b.table45)) };
    { id = "table5";
      title = "Permission List entry distribution";
      run = (fun b -> Exp_table45.render_table5 (Lazy.force b.table45)) };
    { id = "fig5";
      title = "Immediate overhead of a single link failure";
      run = (fun b -> Exp_fig5.render (Exp_fig5.run b.cfg)) };
    { id = "fig6";
      title = "Convergence time CDF (Centaur vs BGP)";
      run = (fun b -> Exp_fig67.render_fig6 (Lazy.force b.fig67)) };
    { id = "fig7";
      title = "Convergence load CDF (Centaur vs OSPF)";
      run = (fun b -> Exp_fig67.render_fig7 (Lazy.force b.fig67)) };
    { id = "fig8";
      title = "Scalability of update overhead";
      run = (fun b -> Exp_fig8.render (Exp_fig8.run b.cfg)) };
    { id = "scale";
      title = "Size scaling of the analysis pipeline (300 -> 26k nodes)";
      run =
        (fun b ->
          let r = Exp_scale.run b.cfg in
          (* Timings/RSS are environment noise — keep them off stdout so
             the deterministic table stays diffable. *)
          prerr_string (Exp_scale.render_timing r);
          Exp_scale.render r) };
    { id = "churnrate";
      title =
        "Sustained churn: wave-batched vs event-at-a-time ingestion \
         (Centaur vs BGP vs OSPF)";
      run =
        (fun b ->
          let r = Exp_churnrate.run b.cfg in
          (* Wall-clock throughput is environment noise — stderr only,
             so the deterministic table stays diffable. *)
          prerr_string (Exp_churnrate.render_timing r);
          Exp_churnrate.render r) };
    { id = "resilience";
      title = "Routability over time under churn (Centaur vs BGP vs OSPF)";
      run = (fun b -> Exp_resilience.render (Exp_resilience.run b.cfg)) };
    { id = "containment";
      title = "Containment of route leaks and prefix hijacks (Centaur vs BGP)";
      run = (fun b -> Exp_containment.render (Exp_containment.run b.cfg)) };
    { id = "convergence";
      title =
        "Convergence safety: analyzer verdicts vs bounded engine runs \
         (certified / flagged / inconclusive)";
      run = (fun b -> Exp_convergence.render (Exp_convergence.run b.cfg)) };
    { id = "ablation-mrai";
      title = "MRAI sweep (what drives the Figure 6 gap)";
      run =
        (fun b -> Exp_ablations.render_mrai (Exp_ablations.run_mrai b.cfg)) };
    { id = "ablation-multipath";
      title = "Multi-path compactness (paper §7)";
      run =
        (fun b ->
          Exp_ablations.render_multipath (Exp_ablations.run_multipath b.cfg))
    } ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all
