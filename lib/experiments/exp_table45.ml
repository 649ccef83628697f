type row = {
  discipline : string;
  caida : Centaur.Static.pgraph_stats;
  hetop : Centaur.Static.pgraph_stats;
}

type result = row list

let run cfg =
  let both analyze =
    let run_on topo = analyze topo ~sources:(Inputs.sample_sources cfg topo) in
    (run_on (Inputs.caida cfg), run_on (Inputs.hetop cfg))
  in
  let discipline_row name discipline =
    let caida, hetop =
      both (fun topo -> Centaur.Static.analyze ~discipline topo)
    in
    { discipline = name; caida; hetop }
  in
  let vf_row =
    let caida, hetop = both (fun topo -> Centaur.Static.analyze_vf topo) in
    { discipline = "vf-shortest"; caida; hetop }
  in
  [ discipline_row "standard" Gao_rexford.Standard;
    discipline_row "arbitrary" Gao_rexford.Arbitrary;
    discipline_row "class-only" Gao_rexford.Class_only;
    discipline_row "diverse" Gao_rexford.Diverse;
    vf_row ]

let render_table4 rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 4. Structural characteristics of P-graphs (per-root averages).\n";
  Buffer.add_string buf
    "  discipline    topology     links  permission-lists  avg PL bytes\n";
  List.iter
    (fun r ->
      let line topo_name (s : Centaur.Static.pgraph_stats) =
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %-11s %8.1f %12.1f %12.1fB\n" r.discipline
             topo_name s.Centaur.Static.avg_links s.Centaur.Static.avg_plists
             s.Centaur.Static.avg_plist_compressed_bytes)
      in
      line "caida-like" r.caida;
      line "hetop-like" r.hetop)
    rows;
  Buffer.add_string buf
    "  (paper, 26k/20k nodes: links 40339/32006 = 1.55/1.61 per dest;\n";
  Buffer.add_string buf
    "   Permission Lists 14437/12219 = 0.55/0.61 per dest. Only the\n";
  Buffer.add_string buf
    "   'arbitrary' tie-break discipline — deployed BGP's effective\n";
  Buffer.add_string buf
    "   behaviour — produces this bushiness; see EXPERIMENTS.md.)\n";
  Buffer.contents buf

let dist_fractions (d : Centaur.Static.entry_distribution) =
  let total = d.Centaur.Static.one + d.Centaur.Static.two
              + d.Centaur.Static.three + d.Centaur.Static.more
  in
  if total = 0 then (0.0, 0.0, 0.0, 0.0)
  else
    let f x = 100.0 *. float_of_int x /. float_of_int total in
    ( f d.Centaur.Static.one,
      f d.Centaur.Static.two,
      f d.Centaur.Static.three,
      f d.Centaur.Static.more )

let render_table5 rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 5. Distribution of the number of entries in one Permission List.\n";
  Buffer.add_string buf
    "  discipline    topology    #entries=1  #entries=2  #entries=3  #entries>3\n";
  List.iter
    (fun r ->
      let line topo_name (s : Centaur.Static.pgraph_stats) =
        let e1, e2, e3, e4 = dist_fractions s.Centaur.Static.entry_dist in
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %-11s %9.1f%% %10.1f%% %10.1f%% %10.1f%%\n"
             r.discipline topo_name e1 e2 e3 e4)
      in
      line "caida-like" r.caida;
      line "hetop-like" r.hetop)
    rows;
  Buffer.add_string buf
    "  (paper: CAIDA 0.7/91.9/7.0/0.6%; HeTop 0.7/92.9/6.4/0.1% —\n";
  Buffer.add_string buf
    "   small entry counts dominate in every discipline; the exact\n";
  Buffer.add_string buf
    "   bucket shares depend on the tie-break, see EXPERIMENTS.md)\n";
  Buffer.contents buf
