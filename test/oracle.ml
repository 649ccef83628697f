(* Test oracles: reference implementations the optimized code is checked
   against, kept independent of it. [Reference] is the pre-packed
   nested-Hashtbl P-graph with its own BuildGraph; the materialized
   Table 4/5 statistics below build one [Reference] graph per source
   from its full path list, where [Static] streams every path through
   [Pgraph]'s traversal record. Nothing here calls [Static] or
   [Pgraph]'s BuildGraph. *)

open Centaur

(* --- reference P-graph: the former (int, (int, link_data) Hashtbl.t)
   Hashtbl.t implementation --- *)
module Reference = struct
  type data = Pgraph.link_data = {
    counter : int;
    plist : Permission_list.t;
  }

  type t = {
    root_node : int;
    parents : (int, (int, data) Hashtbl.t) Hashtbl.t;
    children : (int, (int, unit) Hashtbl.t) Hashtbl.t;
    dest_marks : (int, unit) Hashtbl.t;
    mutable link_count : int;
  }

  let create ~root =
    { root_node = root;
      parents = Hashtbl.create 64;
      children = Hashtbl.create 64;
      dest_marks = Hashtbl.create 16;
      link_count = 0 }

  let dests t =
    Hashtbl.fold (fun d () acc -> d :: acc) t.dest_marks []
    |> List.sort compare

  let is_dest t d = Hashtbl.mem t.dest_marks d

  let mark_dest t d = Hashtbl.replace t.dest_marks d ()

  let unmark_dest t d = Hashtbl.remove t.dest_marks d

  let add_link t ~parent ~child ~data =
    if parent = child then invalid_arg "Reference.add_link: self-loop";
    let m =
      match Hashtbl.find_opt t.parents child with
      | Some m -> m
      | None ->
        let m = Hashtbl.create 4 in
        Hashtbl.replace t.parents child m;
        m
    in
    if not (Hashtbl.mem m parent) then t.link_count <- t.link_count + 1;
    Hashtbl.replace m parent data;
    let s =
      match Hashtbl.find_opt t.children parent with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace t.children parent s;
        s
    in
    Hashtbl.replace s child ()

  let remove_link t ~parent ~child =
    (match Hashtbl.find_opt t.parents child with
    | None -> ()
    | Some m ->
      if Hashtbl.mem m parent then begin
        Hashtbl.remove m parent;
        t.link_count <- t.link_count - 1
      end;
      if Hashtbl.length m = 0 then Hashtbl.remove t.parents child);
    match Hashtbl.find_opt t.children parent with
    | None -> ()
    | Some s ->
      Hashtbl.remove s child;
      if Hashtbl.length s = 0 then Hashtbl.remove t.children parent

  let parents_of t node =
    match Hashtbl.find_opt t.parents node with
    | None -> []
    | Some m ->
      Hashtbl.fold (fun parent data acc -> (parent, data) :: acc) m []
      |> List.sort (fun (p1, _) (p2, _) -> compare p1 p2)

  let children_of t node =
    match Hashtbl.find_opt t.children node with
    | None -> []
    | Some s ->
      Hashtbl.fold (fun c () acc -> c :: acc) s [] |> List.sort compare

  let in_degree t node =
    match Hashtbl.find_opt t.parents node with
    | None -> 0
    | Some m -> Hashtbl.length m

  let links t =
    Hashtbl.fold
      (fun child m acc ->
        Hashtbl.fold
          (fun parent data acc -> (parent, child, data) :: acc)
          m acc)
      t.parents []
    |> List.sort (fun (p1, c1, _) (p2, c2, _) -> compare (p1, c1) (p2, c2))

  let num_links t = t.link_count

  let nodes t =
    let set = Hashtbl.create 64 in
    Hashtbl.replace set t.root_node ();
    Hashtbl.iter
      (fun child m ->
        Hashtbl.replace set child ();
        Hashtbl.iter (fun parent _ -> Hashtbl.replace set parent ()) m)
      t.parents;
    Hashtbl.fold (fun n () acc -> n :: acc) set [] |> List.sort compare

  let build_graph ~what ~allow_multi ~root paths =
    let seen_dest = Hashtbl.create 16 in
    let seen_path = Hashtbl.create 16 in
    let paths =
      List.filter
        (fun p ->
          (match p with
          | [] | [ _ ] -> invalid_arg (what ^ ": path too short")
          | first :: _ when first <> root ->
            invalid_arg (what ^ ": path does not start at root")
          | _ -> ());
          if not (Path.is_loop_free p) then
            invalid_arg (what ^ ": path has a loop");
          let d = Path.destination p in
          if Hashtbl.mem seen_path p then false
          else begin
            if (not allow_multi) && Hashtbl.mem seen_dest d then
              invalid_arg (what ^ ": two paths for one destination");
            Hashtbl.add seen_dest d ();
            Hashtbl.add seen_path p ();
            true
          end)
        paths
    in
    let counters : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let traversals : (int * int, (int * int) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let graph = create ~root in
    List.iter
      (fun p ->
        let d = Path.destination p in
        mark_dest graph d;
        List.iter
          (fun (a, b) ->
            let key = (a, b) in
            Hashtbl.replace counters key
              (1 + Option.value (Hashtbl.find_opt counters key) ~default:0);
            let next = Helpers.next_after p b in
            let prev =
              Option.value (Hashtbl.find_opt traversals key) ~default:[]
            in
            Hashtbl.replace traversals key ((d, next) :: prev))
          (Helpers.path_links p))
      paths;
    let indeg = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (_a, b) _ ->
        Hashtbl.replace indeg b
          (1 + Option.value (Hashtbl.find_opt indeg b) ~default:0))
      counters;
    Hashtbl.iter
      (fun (a, b) count ->
        let plist =
          if Option.value (Hashtbl.find_opt indeg b) ~default:0 > 1 then
            List.fold_left
              (fun pl (dest, next) -> Permission_list.add pl ~dest ~next)
              Permission_list.empty
              (Hashtbl.find traversals (a, b))
          else Permission_list.empty
        in
        add_link graph ~parent:a ~child:b ~data:{ counter = count; plist })
      counters;
    graph

  let of_paths ~root paths =
    build_graph ~what:"Reference.of_paths" ~allow_multi:false ~root paths

  let derive_path t ~dest =
    if dest = t.root_node then Some [ t.root_node ]
    else begin
      let fuel = num_links t + 1 in
      let rec go current prev acc fuel =
        if fuel = 0 then None
        else if current = t.root_node then Some acc
        else
          match Hashtbl.find_opt t.parents current with
          | None -> None
          | Some m when Hashtbl.length m = 1 ->
            let parent = Hashtbl.fold (fun p _ _ -> p) m (-1) in
            go parent current (parent :: acc) (fuel - 1)
          | Some m ->
            let permitted =
              Hashtbl.fold
                (fun parent data best ->
                  if not (Permission_list.permit data.plist ~dest ~next:prev)
                  then best
                  else
                    match best with
                    | Some p when p <= parent -> best
                    | Some _ | None -> Some parent)
                m None
            in
            (match permitted with
            | None -> None
            | Some parent -> go parent current (parent :: acc) (fuel - 1))
      in
      go dest (-1) [ dest ] fuel
    end

  let diff ~old_ ~new_ =
    let old_links = links old_ and new_links = links new_ in
    let tbl = Hashtbl.create 64 in
    List.iter (fun (p, c, d) -> Hashtbl.replace tbl (p, c) d.plist) old_links;
    let add_links =
      List.filter_map
        (fun (p, c, d) ->
          match Hashtbl.find_opt tbl (p, c) with
          | Some old_pl when Permission_list.equal old_pl d.plist -> None
          | Some _ | None -> Some (p, c, d.plist))
        new_links
    in
    let new_tbl = Hashtbl.create 64 in
    List.iter (fun (p, c, _) -> Hashtbl.replace new_tbl (p, c) ()) new_links;
    let remove_links =
      List.filter_map
        (fun (p, c, _) ->
          if Hashtbl.mem new_tbl (p, c) then None else Some (p, c))
        old_links
    in
    let add_dests =
      List.filter (fun d -> not (is_dest old_ d)) (dests new_)
    in
    let remove_dests =
      List.filter (fun d -> not (is_dest new_ d)) (dests old_)
    in
    (add_links, remove_links, add_dests, remove_dests)

  let apply t (remove_links, add_links, add_dests, remove_dests) =
    List.iter
      (fun (parent, child) -> remove_link t ~parent ~child)
      remove_links;
    List.iter
      (fun (parent, child, plist) ->
        add_link t ~parent ~child ~data:{ counter = 0; plist })
      add_links;
    List.iter (mark_dest t) add_dests;
    List.iter (unmark_dest t) remove_dests
end

(* --- materialized Table 4/5 statistics --- *)

(* Links, Permission Lists, entry-count buckets and list sizes priced at
   the analysis' default 1% false-positive rate, summed over one
   reference P-graph per source. *)
let stats_of_graphs graphs : Static.pgraph_stats =
  let fp_rate = 0.01 in
  let links = ref 0 and plists = ref 0 and bytes = ref 0 in
  let one = ref 0 and two = ref 0 and three = ref 0 and more = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun (_, _, (d : Reference.data)) ->
          incr links;
          let pl = d.plist in
          if not (Permission_list.is_empty pl) then begin
            incr plists;
            (match Permission_list.num_entries pl with
            | 1 -> incr one
            | 2 -> incr two
            | 3 -> incr three
            | _ -> incr more);
            bytes := !bytes + Permission_list.compressed_size_bytes pl ~fp_rate
          end)
        (Reference.links g))
    graphs;
  let k = List.length graphs in
  { num_sources = k;
    avg_links = float_of_int !links /. float_of_int k;
    avg_plists = float_of_int !plists /. float_of_int k;
    entry_dist = { one = !one; two = !two; three = !three; more = !more };
    avg_plist_compressed_bytes =
      (if !plists = 0 then 0.0
       else float_of_int !bytes /. float_of_int !plists) }

(* The streamed [Static.analyze], materialized: bag every source's
   selected path to every other destination, under the same route
   selection (the three-phase solver for the Gao-Rexford default under
   the Standard discipline, the fixpoint solver otherwise, skipping a
   destination without a stable solution), and build one reference
   P-graph per source. Holds the n x sources path matrix: test sizes
   only. *)
let analyze_materialized ?(discipline = Gao_rexford.Standard) ?policy topo
    ~sources =
  let policy = Policy.configured policy in
  let src_arr = Array.of_list sources in
  let bags = Array.make (Array.length src_arr) [] in
  for d = 0 to Topology.num_nodes topo - 1 do
    let path_of =
      match (discipline, policy) with
      | Gao_rexford.Standard, None -> Solver.path (Solver.to_dest topo d)
      | _ -> (
        match Stable.to_dest ~discipline ?policy ~max_rounds:512 topo d with
        | r -> Stable.path r
        | exception Stable.Diverged -> fun _ -> None)
    in
    Array.iteri
      (fun i s ->
        if s <> d then
          Option.iter (fun p -> bags.(i) <- p :: bags.(i)) (path_of s))
      src_arr
  done;
  stats_of_graphs
    (List.mapi (fun i s -> Reference.of_paths ~root:s bags.(i)) sources)

(* The streamed [Static.analyze_vf], materialized: one reference P-graph
   per source over its shortest valley-free path set. *)
let analyze_vf_materialized topo ~sources =
  stats_of_graphs
    (List.map
       (fun s ->
         Reference.of_paths ~root:s
           (Vf_paths.path_set (Vf_paths.from_source topo ~src:s)))
       sources)
