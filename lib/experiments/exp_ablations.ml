type mrai_row = {
  mrai : float;
  bgp_median_ms : float;
  bgp_p95_ms : float;
  centaur_median_ms : float;
}

let run_mrai cfg =
  let n = max 60 (cfg.Config.brite_nodes / 3) in
  let topo () = Inputs.brite_sized cfg ~n in
  let flips = max 6 (cfg.Config.flips / 3) in
  let links = Inputs.sample_links cfg (topo ()) ~count:flips in
  let centaur_times =
    Protocols.Convergence.times
      (Protocols.Convergence.flip_links
         (Protocols.Centaur_net.network (topo ()))
         ~links)
  in
  let centaur_median = Stats.median centaur_times in
  List.map
    (fun mrai ->
      let times =
        Protocols.Convergence.times
          (Protocols.Convergence.flip_links
             (Protocols.Bgp_net.network ~mrai (topo ()))
             ~links)
      in
      { mrai;
        bgp_median_ms = Stats.median times;
        bgp_p95_ms = Stats.percentile times 95.0;
        centaur_median_ms = centaur_median })
    [ 0.0; 10.0; 30.0 ]

let render_mrai rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Ablation: BGP MRAI sweep (re-convergence times, same flip workload).\n";
  Buffer.add_string buf
    "  MRAI(ms)   BGP median   BGP p95   Centaur median\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %7.1f  %9.2fms %8.2fms %11.2fms\n" r.mrai
           r.bgp_median_ms r.bgp_p95_ms r.centaur_median_ms))
    rows;
  Buffer.add_string buf
    "  (with MRAI off, BGP converges at propagation speed and the\n\
    \   Figure 6 gap collapses: the gap is the cost of MRAI-paced path\n\
    \   exploration, which Centaur's root-cause withdrawals avoid)\n";
  Buffer.contents buf

let run_multipath cfg =
  let topo = Inputs.caida cfg in
  (* One solver sweep covers every source and every k (the k-best lists
     are nested prefixes). *)
  let ranked =
    Multipath.ranked_sets topo ~kmax:3 ~sources:(Inputs.sample_sources cfg topo)
  in
  List.map (fun k -> Centaur.Multipath_eval.of_ranked ranked ~k) [ 1; 2; 3 ]

let render_multipath = Centaur.Multipath_eval.render
