type entry = {
  id : string;
  title : string;
  run : Config.t -> string;
}

let all =
  [ { id = "table3";
      title = "Characteristics of input topologies";
      run = (fun cfg -> Exp_table3.render (Exp_table3.run cfg)) };
    { id = "table4";
      title = "Structural characteristics of P-graphs";
      run = (fun cfg -> Exp_table45.render_table4 (Exp_table45.run cfg)) };
    { id = "table5";
      title = "Permission List entry distribution";
      run = (fun cfg -> Exp_table45.render_table5 (Exp_table45.run cfg)) };
    { id = "fig5";
      title = "Immediate overhead of a single link failure";
      run = (fun cfg -> Exp_fig5.render (Exp_fig5.run cfg)) };
    { id = "fig6";
      title = "Convergence time CDF (Centaur vs BGP)";
      run = (fun cfg -> Exp_fig67.render_fig6 (Exp_fig67.run cfg)) };
    { id = "fig7";
      title = "Convergence load CDF (Centaur vs OSPF)";
      run = (fun cfg -> Exp_fig67.render_fig7 (Exp_fig67.run cfg)) };
    { id = "fig8";
      title = "Scalability of update overhead";
      run = (fun cfg -> Exp_fig8.render (Exp_fig8.run cfg)) };
    { id = "scale";
      title = "Size scaling of the analysis pipeline (300 -> 26k nodes)";
      run =
        (fun cfg ->
          let r = Exp_scale.run cfg in
          (* Timings/RSS are environment noise — keep them off stdout so
             the deterministic table stays diffable. *)
          prerr_string (Exp_scale.render_timing r);
          Exp_scale.render r) };
    { id = "churnrate";
      title =
        "Sustained churn: wave-batched vs event-at-a-time ingestion \
         (Centaur vs BGP vs OSPF)";
      run =
        (fun cfg ->
          let r = Exp_churnrate.run cfg in
          (* Wall-clock throughput is environment noise — stderr only,
             so the deterministic table stays diffable. *)
          prerr_string (Exp_churnrate.render_timing r);
          Exp_churnrate.render r) };
    { id = "resilience";
      title = "Routability over time under churn (Centaur vs BGP vs OSPF)";
      run = (fun cfg -> Exp_resilience.render (Exp_resilience.run cfg)) };
    { id = "containment";
      title = "Containment of route leaks and prefix hijacks (Centaur vs BGP)";
      run = (fun cfg -> Exp_containment.render (Exp_containment.run cfg)) };
    { id = "convergence";
      title =
        "Convergence safety: analyzer verdicts vs bounded engine runs \
         (certified / flagged / inconclusive)";
      run = (fun cfg -> Exp_convergence.render (Exp_convergence.run cfg)) };
    { id = "ablation-mrai";
      title = "MRAI sweep (what drives the Figure 6 gap)";
      run = (fun cfg -> Exp_ablations.render_mrai (Exp_ablations.run_mrai cfg)) };
    { id = "ablation-multipath";
      title = "Multi-path compactness (paper §7)";
      run =
        (fun cfg ->
          Exp_ablations.render_multipath (Exp_ablations.run_multipath cfg)) } ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all
