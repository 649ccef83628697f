type view = (int * int) list

let view_allows view a b =
  List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) view

(* Hop-count BFS over the view's links, restricted to links that also
   exist (and are up) in the real topology. *)
let next_hop topo ~view ~src ~dest =
  if src = dest then None
  else begin
    let n = Topology.num_nodes topo in
    let dist = Array.make n max_int in
    let parent = Array.make n (-1) in
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.push src q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      Topology.iter_neighbors topo x (fun y _ _ ->
          if view_allows view x y && dist.(y) = max_int then begin
            dist.(y) <- dist.(x) + 1;
            parent.(y) <- x;
            Queue.push y q
          end)
    done;
    if dist.(dest) = max_int then None
    else begin
      (* Walk back from dest to the node after src. *)
      let rec first_hop y = if parent.(y) = src then y else first_hop parent.(y) in
      Some (first_hop dest)
    end
  end
