(* Routing-algebra view of policy-guided path selection. See algebra.mli
   for the convergence argument the orders are chosen to support. *)

type route = { node : int; path : Path.t; cand : Gao_rexford.candidate }

type t = {
  topo : Topology.t;
  discipline : Gao_rexford.discipline;
  policy : Policy.compiled;
}

let create ?(discipline = Gao_rexford.Standard) ?policy topo =
  { topo;
    discipline;
    policy = (match policy with Some p -> p | None -> Policy.default ()) }

(* The route [path] at [node] toward [dest], if [offer] puts it in the
   lead of a fresh running best. *)
let resident t ~dest ~node path offer =
  let best = Gao_rexford.best t.discipline in
  Gao_rexford.start best ~chooser:node ~dest;
  if offer best then
    Option.map (fun cand -> { node; path; cand }) (Gao_rexford.leader best)
  else None

let extend t ~dest r ~via =
  let v = r.node in
  match Topology.rel t.topo v via with
  | Some role_of_via when not (Path.contains r.path via) ->
    resident t ~dest ~node:via (via :: r.path) (fun best ->
        Policy.extend t.policy best ~node:via ~peer:v
          ~role:(Relationship.invert role_of_via) ~dest
          ~neighbor_class:r.cand.cls ~len:r.cand.len ~tail:r.path)
  | Some _ | None -> None

let prefer t ~dest r1 r2 =
  Gao_rexford.compare_routes t.discipline ~chooser:r1.node ~dest r1.cand
    r2.cand
  < 0

(* Global severity order λ: the selection order with its node-local
   keys, next hop and sibling flag, erased. Under the non-Standard
   disciplines λ stops at class rank: [Class_only] does on erased
   routes, where [Diverse] would go on to compare length. λ's keys are
   thus a prefix of the selection order's, so a strict per-node
   preference never contradicts a strict λ. *)
let compare_rank t r1 r2 =
  let erase c = { c with Gao_rexford.next_hop = 0; via_sibling = false } in
  let discipline =
    match t.discipline with
    | Gao_rexford.Standard -> Gao_rexford.Standard
    | Gao_rexford.Class_only | Gao_rexford.Diverse | Gao_rexford.Arbitrary
      ->
      Gao_rexford.Class_only
  in
  Gao_rexford.compare_routes discipline ~chooser:0 ~dest:0 (erase r1.cand)
    (erase r2.cand)

type enumeration = {
  dest : int;
  routes : route list array;
  complete : bool;
  total : int;
}

(* Carrier cap against pathological configurations. *)
let max_routes = 20_000

let enumerate t ~dest =
  let n = Topology.num_nodes t.topo in
  if dest < 0 || dest >= n then
    invalid_arg "Algebra.enumerate: destination out of range";
  let routes = Array.make n [] in
  let q = Queue.create () in
  let total = ref 0 in
  let complete = ref true in
  let push r =
    if !total >= max_routes then complete := false
    else begin
      incr total;
      routes.(r.node) <- r :: routes.(r.node);
      Queue.push r q
    end
  in
  push { node = dest; path = [ dest ]; cand = Gao_rexford.origin ~dest };
  for node = 0 to n - 1 do
    Option.iter push
      (resident t ~dest ~node [ node; dest ] (fun best ->
           Policy.offer_claim t.policy best ~node ~dest))
  done;
  while not (Queue.is_empty q) do
    let r = Queue.pop q in
    Topology.iter_neighbors t.topo r.node (fun u _ _ ->
        match extend t ~dest r ~via:u with
        | Some ext -> push ext
        | None -> ())
  done;
  Array.iteri (fun i l -> routes.(i) <- List.rev l) routes;
  { dest; routes; complete = !complete; total = !total }

type counterexample = {
  base : route;
  ext : route;
}

type check = Holds | Fails of counterexample | Unknown of string

let truncated enum =
  Printf.sprintf
    "enumeration for destination %d truncated at %d routes" enum.dest
    enum.total

let strict_monotonicity t enum =
  let failure = ref None in
  Array.iter
    (fun rs ->
      List.iter
        (fun r ->
          if !failure = None then
            Topology.iter_neighbors t.topo r.node (fun u _ _ ->
                if !failure = None then
                  match extend t ~dest:enum.dest r ~via:u with
                  | Some ext when compare_rank t ext r <= 0 ->
                    failure := Some { base = r; ext }
                  | Some _ | None -> ()))
        rs)
    enum.routes;
  match !failure with
  | Some cex -> Fails cex
  | None -> if enum.complete then Holds else Unknown (truncated enum)

let pp_route ppf r =
  Format.fprintf ppf "%s (pref %d, %s)"
    (String.concat ">" (List.map string_of_int r.path))
    r.cand.pref
    (Gao_rexford.class_to_string r.cand.cls)
