type report = {
  k : int;
  dests : int;
  paths : int;
  pv_hops : int;
  centaur_links : int;
  pl_entries : int;
  compaction : float;
  derived_paths : int;
  excess : float;
}

let of_ranked ranked ~k =
  let dests = ref 0 and paths = ref 0 and pv_hops = ref 0 in
  let links = ref 0 and entries = ref 0 and derived = ref 0 in
  Hashtbl.iter
    (fun src per_dest ->
      let announced =
        List.concat_map (List.filteri (fun i _ -> i < k)) per_dest
      in
      let graph = Pgraph.of_multipaths ~root:src announced in
      dests := !dests + List.length (Pgraph.dests graph);
      paths := !paths + List.length announced;
      pv_hops := !pv_hops + Multipath.path_vector_cost announced;
      links := !links + Pgraph.num_links graph;
      List.iter
        (fun pl -> entries := !entries + Permission_list.num_entries pl)
        (Pgraph.permission_lists graph);
      List.iter
        (fun d ->
          derived :=
            !derived + List.length (Pgraph.derive_paths ~limit:256 graph ~dest:d))
        (Pgraph.dests graph))
    ranked;
  { k;
    dests = !dests;
    paths = !paths;
    pv_hops = !pv_hops;
    centaur_links = !links;
    pl_entries = !entries;
    compaction =
      float_of_int !pv_hops /. float_of_int (max 1 (!links + !entries));
    derived_paths = !derived;
    excess =
      (if !paths = 0 then 0.0
       else float_of_int (!derived - !paths) /. float_of_int !paths) }

let render reports =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Multi-path Centaur (paper \xc2\xa77): announcement compactness vs add-path\n\
     path vector, per source node.\n";
  Buffer.add_string buf
    "  k  dests  paths  pv-hops  links  PL-entries  compaction  derived  excess\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %d %6d %6d %8d %6d %11d %10.2fx %8d %6.1f%%\n" r.k
           r.dests r.paths r.pv_hops r.centaur_links r.pl_entries
           r.compaction r.derived_paths (100.0 *. r.excess)))
    reports;
  Buffer.add_string buf
    "  (compaction > 1: the P-graph announces shared links once where\n\
    \   path vector repeats them per path; excess: extra paths the\n\
    \   per-dest-next encoding admits by prefix recombination)\n";
  Buffer.contents buf
