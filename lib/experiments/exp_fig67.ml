type result = {
  centaur : Protocols.Convergence.result;
  bgp : Protocols.Convergence.result;
  bgp_rcn : Protocols.Convergence.result;
  ospf : Protocols.Convergence.result;
  flipped_links : int list;
}

let run cfg =
  (* Each protocol gets its own topology instance (the engines mutate
     link state), generated from the same seed — identical graphs. *)
  let topo () = Inputs.brite cfg in
  let links = Inputs.sample_links cfg (topo ()) ~count:cfg.Config.flips in
  let run_protocol runner =
    Protocols.Convergence.flip_links runner ~links
  in
  { centaur = run_protocol (Protocols.Centaur_net.network (topo ()));
    bgp = run_protocol (Protocols.Bgp_net.network (topo ()));
    bgp_rcn = run_protocol (Protocols.Bgp_net.network ~rcn:true (topo ()));
    ospf = run_protocol (Protocols.Ospf_net.network (topo ()));
    flipped_links = links }

let centaur_faster_than_bgp r =
  Stats.fraction_below
    (Protocols.Convergence.times r.centaur)
    (Protocols.Convergence.times r.bgp)

let centaur_lighter_than_ospf r =
  Stats.fraction_below
    (Protocols.Convergence.message_counts r.centaur)
    (Protocols.Convergence.message_counts r.ospf)

let percentiles = [ 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ]

let cdf_table ~header ~unit series =
  let buf = Buffer.create 512 in
  Buffer.add_string buf header;
  Buffer.add_string buf "  percentile";
  List.iter
    (fun (name, _) -> Buffer.add_string buf (Printf.sprintf " %14s" name))
    series;
  Buffer.add_string buf "\n";
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "  %8.0f%% " p);
      List.iter
        (fun (_, xs) ->
          Buffer.add_string buf
            (Printf.sprintf " %12.2f%s" (Stats.percentile xs p) unit))
        series;
      Buffer.add_string buf "\n")
    percentiles;
  Buffer.contents buf

let render_fig6 r =
  let t_centaur = Protocols.Convergence.times r.centaur in
  let t_bgp = Protocols.Convergence.times r.bgp in
  let t_rcn = Protocols.Convergence.times r.bgp_rcn in
  let table =
    cdf_table
      ~header:
        "Figure 6. Convergence time CDF after link flips (Centaur vs BGP;\n\
        \ BGP-RCN added as the paper's \xc2\xa76.2 equivalence check).\n"
      ~unit:"ms"
      [ ("Centaur", t_centaur); ("BGP", t_bgp); ("BGP-RCN", t_rcn) ]
  in
  table
  ^ Printf.sprintf
      "  Centaur faster than BGP in %.0f%% of re-convergences (paper: \
       \"almost all the time\").\n  BGP-RCN medians %.2fms vs Centaur \
       %.2fms: root-cause invalidation alone does\n  not close the gap - \
       Centaur's P-graphs let nodes recompute neighbors'\n  replacement \
       paths locally instead of waiting for them (nuances paper \
       \xc2\xa76.2)\n"
      (100.0 *. centaur_faster_than_bgp r)
      (Stats.median t_rcn) (Stats.median t_centaur)

let render_fig7 r =
  let m_centaur = Protocols.Convergence.message_counts r.centaur in
  let m_ospf = Protocols.Convergence.message_counts r.ospf in
  let table =
    cdf_table
      ~header:
        "Figure 7. Convergence load CDF after link flips (Centaur vs OSPF).\n"
      ~unit:"  "
      [ ("Centaur", m_centaur); ("OSPF", m_ospf) ]
  in
  table
  ^ Printf.sprintf
      "  Centaur fewer messages in %.0f%% of re-convergences (paper: 82%%)\n"
      (100.0 *. centaur_lighter_than_ospf r)
