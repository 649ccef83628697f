(* Ranked candidate paths of [src] toward the destination solved in
   [r]: one per neighbor offering an importable route, best first in
   the Standard order of [Gao_rexford.compare_routes]. *)
let ranked_candidates topo r ~src ~dest =
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

let k_best topo ~k ~src ~dest =
  if k < 1 then invalid_arg "Multipath.k_best: k < 1";
  if src = dest then [ [ src ] ]
  else begin
    let r = Solver.to_dest topo dest in
    List.filteri (fun i _ -> i < k) (ranked_candidates topo r ~src ~dest)
  end

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
            List.filteri
              (fun i _ -> i < kmax)
              (ranked_candidates topo r ~src ~dest)
          in
          if ranked <> [] then
            Hashtbl.replace acc src (ranked :: Hashtbl.find acc src)
        end)
      sources
  done;
  acc

let path_set topo ~k ~src =
  let n = Topology.num_nodes topo in
  List.concat_map
    (fun dest -> if dest = src then [] else k_best topo ~k ~src ~dest)
    (List.init n (fun i -> i))

let path_vector_cost paths =
  List.fold_left (fun acc p -> acc + Path.length p) 0 paths
