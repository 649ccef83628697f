(* Classic oscillation gadgets and randomized policy corpora. See
   gadgets.mli for what each construction is for. *)

type gadget = {
  name : string;
  topo : Topology.t;
  config : Policy.config;
  dest : int;
}

(* A ring node's import chain for its preferred ring neighbor: boost the
   two-hop route through it, refuse anything longer (the textbook
   gadgets permit exactly the direct and the one-around path). *)
let ring_import ~from ~pref =
  Policy.import_from (Policy.Peer from)
    [ Policy.rule (Policy.Longer_than 2) [ Policy.Deny ];
      Policy.rule Policy.Any [ Policy.Pref pref ] ]

let disagree () =
  (* 0 is the destination, a customer of both 1 and 2; 1 and 2 peer and
     each prefers the path through the other. *)
  let topo =
    Topology.create ~n:3
      [ (0, 1, Relationship.Provider, 1.0);
        (0, 2, Relationship.Provider, 1.0);
        (1, 2, Relationship.Peer, 1.0) ]
  in
  let config =
    [ Policy.node 1 [ ring_import ~from:2 ~pref:100 ];
      Policy.node 2 [ ring_import ~from:1 ~pref:100 ] ]
  in
  { name = "disagree"; topo; config; dest = 0 }

let bad_gadget_ring ~name ~k ~delay ~pref =
  (* 0 is the destination; 1..k its providers in a preference ring, each
     boosting the two-hop route through its clockwise neighbor. For odd
     [k] no stable assignment exists (the ring cannot be 2-colored), so
     every run oscillates. *)
  let ring_next i = if i = k then 1 else i + 1 in
  let links =
    List.init k (fun i -> (0, i + 1, Relationship.Provider, delay (i + 1)))
    @ List.init k (fun i ->
          let a = i + 1 in
          (a, ring_next a, Relationship.Peer, delay (k + a)))
  in
  let topo = Topology.create ~n:(k + 1) links in
  let config =
    List.init k (fun i ->
        let a = i + 1 in
        Policy.node a [ ring_import ~from:(ring_next a) ~pref:(pref a) ])
  in
  { name; topo; config; dest = 0 }

let bad_gadget () =
  bad_gadget_ring ~name:"bad-gadget" ~k:3 ~delay:(fun _ -> 1.0)
    ~pref:(fun _ -> 100)

let wedgie () =
  (* RFC 4264: 0 buys transit from 3 (primary) and 1 (backup); 2 is 1's
     provider and 3's peer. Node 1 prefers provider-learned routes, so
     once it hears 2's path through 3 it abandons its direct customer
     route — and 2 in turn prefers the customer route through 1 over
     its peer route through 3. *)
  let topo =
    Topology.create ~n:4
      [ (0, 1, Relationship.Provider, 1.0);
        (0, 3, Relationship.Provider, 1.0);
        (1, 2, Relationship.Provider, 1.0);
        (2, 3, Relationship.Peer, 1.0) ]
  in
  let config =
    [ Policy.node 1
        [ Policy.import_from (Policy.With_role Relationship.Provider)
            [ Policy.rule Policy.Any [ Policy.Pref 100 ] ] ] ]
  in
  { name = "wedgie"; topo; config; dest = 0 }

let all () = [ disagree (); bad_gadget (); wedgie () ]

let bad_gadget_family ~seed =
  let rng = Rng.create seed in
  let k = [| 3; 5; 7 |].(Rng.int rng 3) in
  let delays = Array.init (2 * k + 1) (fun _ -> Rng.float_in rng 0.5 5.0) in
  let prefs = Array.init (k + 1) (fun _ -> Rng.int_in rng 50 200) in
  bad_gadget_ring
    ~name:(Printf.sprintf "bad-gadget-k%d-seed%d" k seed)
    ~k
    ~delay:(fun i -> delays.(i mod Array.length delays))
    ~pref:(fun a -> prefs.(a))

(* ------------------------------------------------------------------ *)
(* Random configurations                                              *)
(* ------------------------------------------------------------------ *)

let pick rng l = List.nth l (Rng.int rng (List.length l))

let random_pred rng n =
  match Rng.int rng 5 with
  | 0 -> Policy.Any
  | 1 ->
    Policy.Dest_in
      (List.sort_uniq compare
         (List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n)))
  | 2 ->
    Policy.Class_in
      [ pick rng
          [ Gao_rexford.Origin; Gao_rexford.Cust; Gao_rexford.Peer_r;
            Gao_rexford.Prov ] ]
  | 3 -> Policy.Longer_than (Rng.int rng 6)
  | _ -> Policy.Path_through (Rng.int rng n)

let random_config rng topo ~safe =
  let n = Topology.num_nodes topo in
  let stanzas = 1 + Rng.int rng (max 1 (n / 3)) in
  let nodes =
    List.sort_uniq compare (List.init stanzas (fun _ -> Rng.int rng n))
  in
  List.filter_map
    (fun node ->
      let nbrs =
        List.rev
          (Topology.fold_neighbors topo node ~init:[] ~f:(fun acc nb _ _ ->
               nb :: acc))
      in
      if nbrs = [] then None
      else begin
        let random_sel () =
          match Rng.int rng 6 with
          | 0 -> Policy.Any_peer
          | 1 -> Policy.With_role Relationship.Customer
          | 2 -> Policy.With_role Relationship.Provider
          | 3 -> Policy.With_role Relationship.Peer
          | 4 -> Policy.With_role Relationship.Sibling
          | _ ->
            Policy.Peer (pick rng nbrs)
        in
        let random_rules ~dir ~cust_only =
          let count = 1 + Rng.int rng 2 in
          List.init count (fun i ->
              let guard = random_pred rng n in
              (* A terminal catch-all anywhere but last makes the chain
                 invalid ("unreachable rule"); dodge [Any] early. *)
              let guard =
                if i < count - 1 && guard = Policy.Any then
                  Policy.Longer_than (Rng.int rng 6)
                else guard
              in
              let action =
                let unconstrained = (not safe) || cust_only in
                match dir with
                | Policy.Import ->
                  if unconstrained && Rng.chance rng 0.5 then
                    Policy.Pref (1 + Rng.int rng 200)
                  else if Rng.chance rng 0.5 then Policy.Deny
                  else Policy.Permit
                | Policy.Export ->
                  if unconstrained && Rng.chance rng 0.4 then Policy.Permit
                  else Policy.Deny
              in
              Policy.rule guard [ action ])
        in
        let clauses =
          List.init
            (1 + Rng.int rng 2)
            (fun _ ->
              if Rng.chance rng 0.1 then
                Policy.originate [ Rng.int rng n ]
              else begin
                let sel = random_sel () in
                let cust_only = Dispute.customer_only topo node sel in
                if Rng.bool rng then
                  Policy.import_from sel
                    (random_rules ~dir:Policy.Import ~cust_only)
                else
                  Policy.export_to sel
                    (random_rules ~dir:Policy.Export ~cust_only)
              end)
        in
        Some (Policy.node node clauses)
      end)
    nodes
