(* [Some] of a constant constructor is a static constant, so answering
   through this match makes classifying a path allocation-free. *)
let some_class : Gao_rexford.route_class -> Gao_rexford.route_class option =
  function
  | Origin -> Some Origin
  | Cust -> Some Cust
  | Peer_r -> Some Peer_r
  | Prov -> Some Prov

let rec class_of topo = function
  | [] -> None
  | [ _ ] -> Some Gao_rexford.Origin
  | a :: (b :: _ as rest) -> (
    match Topology.rel_any topo a b with
    | None -> None
    | Some role_of_b -> (
      match class_of topo rest with
      | None -> None
      | Some neighbor_class ->
        some_class
          (Gao_rexford.class_of_learned ~neighbor_role:role_of_b
             ~neighbor_class)))
