type tree = {
  src : int;
  dist : float array;  (* infinity = unreachable *)
  pred : int array;    (* -1 at root / unreachable *)
}

let node_mask = (1 lsl 31) - 1

let from_filtered topo ~src ~link_ok =
  let n = Topology.num_nodes topo in
  if src < 0 || src >= n then invalid_arg "Dijkstra.from: source out of range";
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let settled = Array.make n false in
  (* Entries pop in (distance, predecessor, node) order: the tie packs the
     predecessor (+1, so the root's -1 is 0) above the node id, which
     fits in 31 bits. *)
  let heap = Heap.create ~dummy:() in
  Heap.push heap ~key:0.0 ~tie:src ();
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap and tie = Heap.min_tie heap in
    Heap.pop heap;
    let v = tie land node_mask in
    if not settled.(v) then begin
      settled.(v) <- true;
      dist.(v) <- d;
      pred.(v) <- (tie lsr 31) - 1;
      let above = (v + 1) lsl 31 in
      Topology.iter_neighbors topo v (fun nb _ link_id ->
          if (not settled.(nb)) && link_ok link_id then
            let w = (Topology.link topo link_id).Topology.delay in
            Heap.push heap ~key:(d +. w) ~tie:(above lor nb) ())
    end
  done;
  { src; dist; pred }

let all_links _ = true

let from topo ~src = from_filtered topo ~src ~link_ok:all_links

let dist t v = if t.dist.(v) = infinity then None else Some t.dist.(v)

let predecessor t v =
  if t.dist.(v) = infinity || v = t.src then None else Some t.pred.(v)

let path_to t v =
  if t.dist.(v) = infinity then None
  else begin
    let rec go u acc =
      if u = t.src then t.src :: acc else go t.pred.(u) (u :: acc)
    in
    Some (go v [])
  end

let next_hop_to t v =
  match path_to t v with
  | Some (_ :: hop :: _) -> Some hop
  | Some _ | None -> None
