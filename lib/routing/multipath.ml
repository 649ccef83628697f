(* Candidates are ranked in the Standard order of
   [Gao_rexford.compare_routes]; the sort is stable, so equal offers
   keep ascending neighbor order. *)
let ranked_candidates topo r ~src =
  let dest = Solver.dest r in
  let policy = Policy.default ()
  and best = Gao_rexford.best Gao_rexford.Standard in
  (* The route [src] learns from neighbor [n] over [n]'s selection
     [down], offered at the class [n] selected it with. *)
  let learned n role down =
    match Solver.class_of r n with
    | Some neighbor_class ->
      Gao_rexford.start best ~chooser:src ~dest;
      if
        Policy.extend policy best ~node:src ~peer:n ~role ~dest
          ~neighbor_class ~len:(Path.length down) ~tail:down
      then Option.map (fun c -> (src :: down, c)) (Gao_rexford.leader best)
      else None
    | None -> None
  in
  let candidates =
    Topology.fold_neighbors topo src ~init:[] ~f:(fun acc n role _ ->
        let down =
          if n = dest then Some [ dest ]
          else
            match Solver.path r n with
            | Some p when not (Path.contains p src) -> Some p
            | Some _ | None -> None
        in
        match Option.bind down (learned n role) with
        | Some c -> c :: acc
        | None -> acc)
  in
  List.map fst
    (List.sort
       (fun (_, c1) (_, c2) ->
         Gao_rexford.compare_routes Gao_rexford.Standard ~chooser:src ~dest
           c1 c2)
       (List.rev candidates))

let ranked_sets topo ~kmax ~sources =
  if kmax < 1 then invalid_arg "Multipath.ranked_sets: kmax < 1";
  let n = Topology.num_nodes topo in
  let acc = Hashtbl.create (List.length sources) in
  List.iter (fun s -> Hashtbl.replace acc s []) sources;
  for dest = n - 1 downto 0 do
    let r = Solver.to_dest topo dest in
    List.iter
      (fun src ->
        if src <> dest then begin
          let ranked =
            List.filteri (fun i _ -> i < kmax) (ranked_candidates topo r ~src)
          in
          if ranked <> [] then
            Hashtbl.replace acc src (ranked :: Hashtbl.find acc src)
        end)
      sources
  done;
  acc

let path_vector_cost paths =
  List.fold_left (fun acc p -> acc + Path.length p) 0 paths
