(* Convergence safety analyzer. See dispute.mli for the verdict
   semantics and soundness claims. *)

type cert =
  | Gao_rexford_structure
  | Strict_monotonicity of { dests : int; routes : int }

type hub = {
  node : int;
  spoke : Algebra.route;
  rim : Algebra.route;
  rim_line : int option;
}

type wheel = { dest : int; hubs : hub list }

type verdict =
  | Certified of cert
  | Wheel of wheel
  | Inconclusive of string list

let is_certified = function Certified _ -> true | Wheel _ | Inconclusive _ -> false

(* ------------------------------------------------------------------ *)
(* Structural Gao–Rexford certificate                                 *)
(* ------------------------------------------------------------------ *)

(* Sibling links contracted: a sibling group acts as one organisation
   for the hierarchy condition. *)
let sibling_components topo =
  let uf = Union_find.create (Topology.num_nodes topo) in
  Array.iter
    (fun l ->
      if l.Topology.rel_ab = Relationship.Sibling then
        ignore (Union_find.union uf l.Topology.a l.Topology.b))
    (Topology.links topo);
  Union_find.find uf

(* A chain is customer-only when it can only ever apply to
   customer-role neighbors: its imported routes are then always
   customer-class, and its exports are always within the Gao–Rexford
   export rule. Roles are read over every link of [node], up or down,
   from its CSR slice. *)
let customer_only topo node = function
  | Policy.With_role Relationship.Customer -> true
  | Policy.With_role _ -> false
  | Policy.Peer p -> (
    (* A chain for a non-neighbor never runs; treat as safe. *)
    match Topology.rel_any topo node p with
    | None -> true
    | Some r -> r = Relationship.Customer)
  | Policy.Any_peer ->
    let adj = Topology.adj topo in
    let rec all_customers k hi =
      k >= hi
      || adj.Topology.adj_rel.(k) = Topology.code_customer
         && all_customers (k + 1) hi
    in
    (* A node outside the topology has no links. *)
    node < 0
    || node >= Topology.num_nodes topo
    || all_customers adj.Topology.adj_off.(node) adj.Topology.adj_off.(node + 1)

(* Reasons the structural certificate does not apply; [] = certified.
   Business relationships are static contracts, so the scan uses all
   links regardless of up/down state — the certificate must survive
   links coming back up. *)
let structural_reasons ?policy topo =
  let n = Topology.num_nodes topo in
  let find = sibling_components topo in
  let reasons = ref [] in
  let add fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
  (* Provider -> customer edges between sibling components, built in
     link-id order for determinism. *)
  let succ = Array.make n [] in
  Array.iter
    (fun l ->
      let open Topology in
      let dir =
        match l.rel_ab with
        | Relationship.Customer -> Some (l.a, l.b) (* b is a's customer *)
        | Relationship.Provider -> Some (l.b, l.a)
        | Relationship.Peer | Relationship.Sibling -> None
      in
      match dir with
      | None -> ()
      | Some (p, c) ->
        let p = find p and c = find c in
        if p = c then
          add
            "provider-customer link between nodes %d and %d inside one \
             sibling group"
            l.a l.b
        else succ.(p) <- c :: succ.(p))
    (Topology.links topo);
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  (* Cycle detection over component representatives. *)
  let color = Array.make n 0 in
  let cycle = ref None in
  let rec dfs v =
    color.(v) <- 1;
    List.iter
      (fun w ->
        if !cycle = None then
          if color.(w) = 1 then cycle := Some w
          else if color.(w) = 0 then dfs w)
      succ.(v);
    if color.(v) = 1 then color.(v) <- 2
  in
  for v = 0 to n - 1 do
    if find v = v && color.(v) = 0 && !cycle = None then dfs v
  done;
  (match !cycle with
  | Some v -> add "provider-customer hierarchy has a cycle through node %d" v
  | None -> ());
  (* Policy scan: preference boosts and export permits are safe exactly
     when their chain is customer-only. *)
  (match policy with
  | None -> ()
  | Some pol ->
    if Policy.overrides_active pol then
      add
        "scenario overrides are active (leaks/claims/corruption bypass \
         the configured policy)";
    let config = Policy.source pol in
    List.iter
      (fun np ->
        let node = np.Policy.node in
        let line_s (r : Policy.rule) =
          if r.Policy.line > 0 then Printf.sprintf " (line %d)" r.Policy.line
          else ""
        in
        List.iter
          (function
            | Policy.Originate _ -> ()
            | Policy.Filter { dir; sel; rules } ->
              if not (customer_only topo node sel) then
                List.iter
                  (fun (r : Policy.rule) ->
                    List.iter
                      (fun act ->
                        match (act, dir) with
                        | Policy.Pref v, Policy.Import when v > 0 ->
                          add
                            "node %d%s: pref %d in an import chain that \
                             can apply beyond customers"
                            node (line_s r) v
                        | Policy.Permit, Policy.Export ->
                          add
                            "node %d%s: custom export permit in a chain \
                             that can apply beyond customers"
                            node (line_s r)
                        | _ -> ())
                      r.Policy.actions)
                  rules)
          np.Policy.clauses)
      config);
  List.rev !reasons

(* ------------------------------------------------------------------ *)
(* Wheel search                                                       *)
(* ------------------------------------------------------------------ *)

(* Search for a dispute wheel with single-link rims: a cycle of
   (node, spoke-route) pairs where each node holds a permitted route
   through the next node whose tail is the next node's spoke and which
   the node strictly prefers over its own spoke. Such a cycle is a
   genuine Griffin–Shepherd–Wilfong dispute wheel; multi-link rims are
   not searched, so failure to find one proves nothing. *)
let find_wheel alg (enum : Algebra.enumeration) ~max_arcs =
  let dest = enum.Algebra.dest in
  let all =
    Array.of_list (List.concat (Array.to_list enum.Algebra.routes))
  in
  let nv = Array.length all in
  let path_id = Hashtbl.create (max 16 nv) in
  Array.iteri
    (fun i (r : Algebra.route) -> Hashtbl.replace path_id r.path i)
    all;
  let ids_by_node =
    Array.map (List.map (fun (r : Algebra.route) -> Hashtbl.find path_id r.path))
      enum.Algebra.routes
  in
  let succ = Array.make nv [] in
  let arcs = ref 0 in
  let capped = ref false in
  Array.iter
    (fun pu ->
      List.iter
        (fun pid ->
          let p = all.(pid) in
          if p.Algebra.cand.len >= 1 then
            match Hashtbl.find_opt path_id (List.tl p.Algebra.path) with
            | None -> () (* tail missing: truncated enumeration *)
            | Some tid ->
              List.iter
                (fun qid ->
                  if
                    qid <> pid
                    && Algebra.prefer alg ~dest p all.(qid)
                  then begin
                    if !arcs >= max_arcs then capped := true
                    else begin
                      incr arcs;
                      succ.(qid) <- (tid, pid) :: succ.(qid)
                    end
                  end)
                pu)
        pu)
    ids_by_node;
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  let color = Array.make nv 0 in
  let exception Found of (int * int) list in
  (* trail: (spoke id, rim id) arcs on the current gray path, newest
     first. *)
  let rec dfs v trail =
    color.(v) <- 1;
    List.iter
      (fun (t, rim) ->
        if color.(t) = 1 then begin
          (* Cycle t .. v -> t: collect the gray arcs back to [t]. *)
          let rec collect acc = function
            | (f, r) :: rest ->
              let acc = (f, r) :: acc in
              if f = t then acc else collect acc rest
            | [] -> acc
          in
          raise (Found (collect [] ((v, rim) :: trail)))
        end
        else if color.(t) = 0 then dfs t ((v, rim) :: trail))
      succ.(v);
    color.(v) <- 2
  in
  match
    for v = 0 to nv - 1 do
      if color.(v) = 0 then dfs v []
    done
  with
  | () -> (None, !capped)
  | exception Found cycle ->
    (* [cycle] is oldest-first: [(q_0, rim_0); ...]; each rim_i runs
       from q_i's node through the node of q_{i+1 mod k}. Rotate so the
       lowest-numbered hub leads. *)
    let hubs =
      List.map
        (fun (qid, rimid) ->
          let spoke = all.(qid) and rim = all.(rimid) in
          { node = spoke.Algebra.node; spoke; rim; rim_line = None })
        cycle
    in
    let k = List.length hubs in
    let arr = Array.of_list hubs in
    let best = ref 0 in
    Array.iteri (fun i h -> if h.node < arr.(!best).node then best := i) arr;
    let rotated = List.init k (fun i -> arr.((i + !best) mod k)) in
    (Some { dest; hubs = rotated }, !capped)

let annotate_lines ?policy topo w =
  match policy with
  | None -> w
  | Some pol ->
    if Policy.source pol = [] then w
    else
      { w with
        hubs =
          List.map
            (fun h ->
              let r = h.rim in
              let c = r.Algebra.cand in
              match Topology.rel_any topo r.node c.next_hop with
              | None -> h
              | Some role ->
                let _, line =
                  Policy.explain_import pol ~node:r.node ~peer:c.next_hop
                    ~role ~dest:w.dest ~cls:c.cls ~len:c.len ~path:r.path
                in
                { h with rim_line = line })
            w.hubs }

(* ------------------------------------------------------------------ *)
(* Pipeline                                                           *)
(* ------------------------------------------------------------------ *)

let analyze ?discipline ?policy ?dests topo =
  let structural = structural_reasons ?policy topo in
  if structural = [] then Certified Gao_rexford_structure
  else begin
    let alg = Algebra.create ?discipline ?policy topo in
    let n = Topology.num_nodes topo in
    let dests =
      match dests with Some ds -> ds | None -> List.init n (fun i -> i)
    in
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    let monotone = ref true in
    let total = ref 0 in
    let suspects = ref [] in
    List.iter
      (fun d ->
        let enum = Algebra.enumerate alg ~dest:d in
        total := !total + enum.Algebra.total;
        match Algebra.strict_monotonicity alg enum with
        | Algebra.Holds -> ()
        | Algebra.Fails cex ->
          monotone := false;
          suspects := (d, enum) :: !suspects;
          if !notes = [] then
            note "destination %d: %s extends %s without strictly degrading \
                  the global order"
              d
              (Format.asprintf "%a" Algebra.pp_route cex.Algebra.ext)
              (Format.asprintf "%a" Algebra.pp_route cex.Algebra.base)
        | Algebra.Unknown why ->
          monotone := false;
          suspects := (d, enum) :: !suspects;
          note "%s" why)
      dests;
    if !monotone then
      Certified
        (Strict_monotonicity { dests = List.length dests; routes = !total })
    else begin
      let wheel = ref None in
      let capped = ref false in
      List.iter
        (fun (_, enum) ->
          if !wheel = None then begin
            let w, c = find_wheel alg enum ~max_arcs:1_000_000 in
            if c then capped := true;
            match w with
            | Some w -> wheel := Some (annotate_lines ?policy topo w)
            | None -> ()
          end)
        (List.rev !suspects);
      match !wheel with
      | Some w -> Wheel w
      | None ->
        if !capped then note "wheel search truncated (arc budget)";
        note "no dispute wheel found (search covers single-link rims)";
        Inconclusive (structural @ List.rev !notes)
    end
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let pp ppf = function
  | Certified Gao_rexford_structure ->
    Format.fprintf ppf
      "certified: Gao-Rexford structure (acyclic hierarchy, customer-only \
       preference and export overrides)@."
  | Certified (Strict_monotonicity { dests; routes }) ->
    Format.fprintf ppf
      "certified: strictly monotone routing algebra (%d destination%s, %d \
       route%s)@."
      dests
      (if dests = 1 then "" else "s")
      routes
      (if routes = 1 then "" else "s")
  | Wheel { dest; hubs } ->
    Format.fprintf ppf "dispute wheel on destination %d (%d hub%s):@." dest
      (List.length hubs)
      (if List.length hubs = 1 then "" else "s")
    ;
    List.iter
      (fun h ->
        Format.fprintf ppf "  node %d: rim %a%s over spoke %a@." h.node
          Algebra.pp_route h.rim
          (match h.rim_line with
          | Some l -> Printf.sprintf " [line %d]" l
          | None -> "")
          Algebra.pp_route h.spoke)
      hubs
  | Inconclusive reasons ->
    Format.fprintf ppf "inconclusive:@.";
    List.iter (fun r -> Format.fprintf ppf "  - %s@." r) reasons

let render v = Format.asprintf "%a" pp v
