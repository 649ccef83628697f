type series = {
  topology : string;
  prefixes_per_as : float;
  bgp : float array;
  centaur : float array;
  mean_ratio : float;
}

type result = series list

let series_of name topo ~prefixes =
  let overheads = Centaur.Static.immediate_overhead ?prefixes topo in
  let bgp =
    Array.map
      (fun o -> float_of_int o.Centaur.Static.bgp_units)
      overheads
  in
  let centaur =
    Array.map
      (fun o -> float_of_int o.Centaur.Static.centaur_units)
      overheads
  in
  let mean_ratio =
    let mb = Stats.mean bgp and mc = Stats.mean centaur in
    if mc > 0.0 then mb /. mc else infinity
  in
  { topology = name;
    prefixes_per_as =
      (match prefixes with None -> 1.0 | Some t -> Prefix.mean t);
    bgp;
    centaur;
    mean_ratio }

let run cfg =
  let with_tables name topo =
    let table =
      Prefix.generate
        (Rng.create (cfg.Config.seed + 99))
        ~n:(Topology.num_nodes topo) ~mean:10.0
    in
    [ series_of name topo ~prefixes:None;
      series_of name topo ~prefixes:(Some table) ]
  in
  with_tables "caida-like" (Inputs.caida cfg)
  @ with_tables "hetop-like" (Inputs.hetop cfg)

let render result =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 5. Immediate overhead of a single link failure (all links).\n";
  Buffer.add_string buf
    "  topology    pfx/AS  protocol     mean      p50      p90       max\n";
  List.iter
    (fun s ->
      let line proto (xs : float array) =
        let _, hi = Stats.min_max xs in
        Buffer.add_string buf
          (Printf.sprintf "  %-11s %5.1f  %-8s %8.1f %8.1f %8.1f %9.1f\n"
             s.topology s.prefixes_per_as proto (Stats.mean xs)
             (Stats.percentile xs 50.0) (Stats.percentile xs 90.0) hi)
      in
      line "BGP" s.bgp;
      line "Centaur" s.centaur;
      Buffer.add_string buf
        (Printf.sprintf "  %-11s %5.1f  mean ratio BGP/Centaur: %.0fx\n"
           s.topology s.prefixes_per_as s.mean_ratio))
    result;
  Buffer.add_string buf
    "  (paper: Centaur incurs roughly 100-1000x fewer update messages;\n";
  Buffer.add_string buf
    "   the ratio grows with topology size and with prefixes per AS -\n";
  Buffer.add_string buf
    "   BGP withdraws per prefix, Centaur per link, cf. paper section 6.4)\n";
  Buffer.contents buf
