open Gao_rexford

(* Reachability is epoch-stamped: node [v] is settled for the current
   solve iff [stamp.(v) = epoch]. Bumping [epoch] invalidates every
   per-node field at once, so [to_dest_with] never [Array.fill]s the
   n-sized arrays between destinations — the per-destination cost is the
   touched edges, not the node count. [len]/[parent]/[cls] are only
   meaningful where the stamp matches.

   Route classes are stored as int codes (index into [cls_table]) so the
   settle loops write into an int array — no pointer-array write barrier
   on the hottest store of the solve. *)
type routes = {
  mutable dest : int;
  mutable n : int;
  mutable epoch : int;
  mutable len : int array;
  mutable parent : int array;   (* next hop toward dest; -1 at dest *)
  mutable cls : int array;      (* index into [cls_table] *)
  mutable stamp : int array;
}

let cls_table = Array.init 4 class_of_rank
let ccode_origin = 0
let ccode_cust = 1
let ccode_peer = 2
let ccode_prov = 3

let dest t = t.dest

(* Reusable per-domain scratch: the result record (returned by every
   [to_dest_with] call — it aliases these arrays), the BFS queue pair,
   the tentative-parent scratch, and a Dial-style bucket queue for the
   unit-weight Dijkstra of phases 2/3. Nothing here is reallocated
   after warmup; the bucket entry arrays grow geometrically and then
   stick.

   Invariants between calls (each phase restores what it dirties):
   [w_tentative] and [w_tlen] are all -1, and every slot of [w_bhead]
   up to the last drained level is -1. *)
type workspace = {
  mutable cap : int;
  r : routes;
  mutable w_tentative : int array;  (* tentative parent, -1 = none *)
  mutable w_tlen : int array;       (* tentative length, -1 = none *)
  mutable w_front : int array;
  mutable w_nextq : int array;
  (* Settled nodes of the current solve in settle order; phases 2 and 3
     seed from this list instead of scanning all n nodes. *)
  mutable w_touched : int array;
  mutable w_ntouched : int;
  (* Bucket queue: [w_bhead.(l)] heads a linked list of entries at
     length [l]; entries are (node, next-entry) pairs in the two flat
     arrays. A node is re-inserted whenever its tentative length
     improves, so the entry at its final length always exists; stale
     entries at higher lengths are skipped by the stamp check. *)
  mutable w_bhead : int array;
  mutable w_bent_node : int array;
  mutable w_bent_next : int array;
  mutable w_bent_used : int;
  mutable w_max_lvl : int;
  (* CSR view of the last topology solved against, so a warm call does
     not even pay the [Topology.adj] record. Keyed by physical equality;
     the view aliases live storage, so reuse is always safe. *)
  mutable w_topo : Topology.t option;
  mutable w_adj : Topology.adj;
}

let empty_adj =
  { Topology.adj_off = [||]; adj_nbr = [||]; adj_rel = [||];
    adj_link = [||]; adj_up = [||] }

let create_workspace () =
  { cap = 0;
    r = { dest = -1; n = 0; epoch = 0; len = [||]; parent = [||];
          cls = [||]; stamp = [||] };
    w_tentative = [||];
    w_tlen = [||];
    w_front = [||];
    w_nextq = [||];
    w_touched = [||];
    w_ntouched = 0;
    w_bhead = [||];
    w_bent_node = Array.make 256 0;
    w_bent_next = Array.make 256 0;
    w_bent_used = 0;
    w_max_lvl = 0;
    w_topo = None;
    w_adj = empty_adj }

(* Every loop below is a top-level recursion with all state passed as
   unboxed int / array arguments: a nested [let rec] capturing locals
   would allocate a fresh closure on every call — one per edge or per
   destination, which measured as ~15 words per node per destination,
   dwarfing the arrays this module exists to avoid. Top-level recursion
   is a static closure and costs nothing per call. *)

(* --- bucket queue ---------------------------------------------------- *)

let bucket_insert ws l y =
  let e = ws.w_bent_used in
  if e = Array.length ws.w_bent_node then begin
    let ncap = 2 * e in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 e;
      b
    in
    ws.w_bent_node <- grow ws.w_bent_node;
    ws.w_bent_next <- grow ws.w_bent_next
  end;
  Array.unsafe_set ws.w_bent_node e y;
  Array.unsafe_set ws.w_bent_next e (Array.unsafe_get ws.w_bhead l);
  Array.unsafe_set ws.w_bhead l e;
  ws.w_bent_used <- e + 1;
  if l > ws.w_max_lvl then ws.w_max_lvl <- l

(* Tentative relaxation with the exact preference order of the packed
   (len, parent, node) heap this replaces: shorter length wins, equal
   length keeps the smaller parent id. Levels are drained in increasing
   order and extension edges add +1, so an improvement can never target
   an already-drained level — the re-insert always lands ahead of the
   cursor. *)
let add_candidate ws tent tlen l p y =
  let cur = Array.unsafe_get tlen y in
  if cur < 0 || l < cur then begin
    Array.unsafe_set tent y p;
    Array.unsafe_set tlen y l;
    bucket_insert ws l y
  end
  else if l = cur && p < Array.unsafe_get tent y then
    Array.unsafe_set tent y p

(* --- phase 1: customer routes ---------------------------------------- *)

(* Pure BFS from the destination across edges x→y where x is y's
   customer or sibling (i.e. routes climb to providers and cross sibling
   links). Layered processing with min-parent selection gives shortest
   length and lowest next-hop id within the layer; the frontier/touched
   lists live in the two flat queue arrays.

   x announces to y; the route qualifies as a customer route at y when
   x's role as seen from y is Customer or Sibling — equivalently when
   y's role at x ([adj_rel]) is Provider or Sibling. *)
let rec cust_scan_edges nbr rel lnk up stamp tent ep x k hi nxt tlen =
  if k > hi then tlen
  else begin
    let code = Array.unsafe_get rel k in
    let tlen =
      if (code = Topology.code_provider || code = Topology.code_sibling)
         && Array.unsafe_get up (Array.unsafe_get lnk k)
      then begin
        let y = Array.unsafe_get nbr k in
        if Array.unsafe_get stamp y <> ep then begin
          let t = Array.unsafe_get tent y in
          if t = -1 then begin
            Array.unsafe_set tent y x;
            Array.unsafe_set nxt tlen y;
            tlen + 1
          end
          else begin
            if x < t then Array.unsafe_set tent y x;
            tlen
          end
        end
        else tlen
      end
      else tlen
    in
    cust_scan_edges nbr rel lnk up stamp tent ep x (k + 1) hi nxt tlen
  end

let rec cust_scan_front off nbr rel lnk up stamp tent ep front i flen nxt tlen
    =
  if i >= flen then tlen
  else begin
    let x = Array.unsafe_get front i in
    let tlen =
      cust_scan_edges nbr rel lnk up stamp tent ep x
        (Array.unsafe_get off x)
        (Array.unsafe_get off (x + 1) - 1)
        nxt tlen
    in
    cust_scan_front off nbr rel lnk up stamp tent ep front (i + 1) flen nxt
      tlen
  end

let rec cust_assign ws stamp len parent cls tent ep nxt i tlen layer =
  if i < tlen then begin
    let y = Array.unsafe_get nxt i in
    Array.unsafe_set stamp y ep;
    Array.unsafe_set len y layer;
    Array.unsafe_set parent y (Array.unsafe_get tent y);
    Array.unsafe_set cls y ccode_cust;
    Array.unsafe_set tent y (-1);
    Array.unsafe_set ws.w_touched ws.w_ntouched y;
    ws.w_ntouched <- ws.w_ntouched + 1;
    cust_assign ws stamp len parent cls tent ep nxt (i + 1) tlen layer
  end

let rec cust_layers ws off nbr rel lnk up stamp len parent cls tent ep front
    nxt flen layer =
  if flen > 0 then begin
    let tlen =
      cust_scan_front off nbr rel lnk up stamp tent ep front 0 flen nxt 0
    in
    let layer = layer + 1 in
    cust_assign ws stamp len parent cls tent ep nxt 0 tlen layer;
    cust_layers ws off nbr rel lnk up stamp len parent cls tent ep nxt front
      tlen layer
  end

let phase_customer (adj : Topology.adj) ws r =
  let off = adj.Topology.adj_off and nbr = adj.Topology.adj_nbr
  and rel = adj.Topology.adj_rel and lnk = adj.Topology.adj_link
  and up = adj.Topology.adj_up in
  let tent = ws.w_tentative and stamp = r.stamp and ep = r.epoch in
  stamp.(r.dest) <- ep;
  r.len.(r.dest) <- 0;
  r.parent.(r.dest) <- -1;
  r.cls.(r.dest) <- ccode_origin;
  ws.w_touched.(0) <- r.dest;
  ws.w_ntouched <- 1;
  ws.w_front.(0) <- r.dest;
  cust_layers ws off nbr rel lnk up stamp r.len r.parent r.cls tent ep
    ws.w_front ws.w_nextq 1 0

(* --- phases 2/3: unit-weight Dijkstra over the bucket queue ---------- *)

(* Unit edge weights make Dijkstra a level-ordered BFS, so the packed
   binary heap of the previous implementation is replaced by the O(1)
   bucket queue: levels drain in increasing order and [add_candidate]
   keeps the min parent within a level, which reproduces the heap's
   (len, parent, node) pop order node for node — a node settles at its
   minimal length with the minimal parent at that length, and settle
   order {e within} a level cannot matter because extension edges only
   produce candidates one level down. *)

let rec drain_scan ws nbr rel lnk up stamp tent tlen ep sib_only y k hi l =
  if k <= hi then begin
    let code = Array.unsafe_get rel k in
    let ok =
      if sib_only then code = Topology.code_sibling
      else code = Topology.code_customer || code = Topology.code_sibling
    in
    (if ok && Array.unsafe_get up (Array.unsafe_get lnk k) then begin
       let z = Array.unsafe_get nbr k in
       if Array.unsafe_get stamp z <> ep then
         add_candidate ws tent tlen (l + 1) y z
     end);
    drain_scan ws nbr rel lnk up stamp tent tlen ep sib_only y (k + 1) hi l
  end

let rec drain_chain ws off nbr rel lnk up stamp len parent cls tent tlen ep
    ccode sib_only l e =
  if e >= 0 then begin
    let y = Array.unsafe_get ws.w_bent_node e in
    let en = Array.unsafe_get ws.w_bent_next e in
    (if Array.unsafe_get stamp y <> ep then begin
       Array.unsafe_set stamp y ep;
       Array.unsafe_set len y l;
       Array.unsafe_set parent y (Array.unsafe_get tent y);
       Array.unsafe_set cls y ccode;
       Array.unsafe_set tent y (-1);
       Array.unsafe_set tlen y (-1);
       (if sib_only then begin
          (* phase 3 seeds from the nodes settled in phases 1–2 *)
          Array.unsafe_set ws.w_touched ws.w_ntouched y;
          ws.w_ntouched <- ws.w_ntouched + 1
        end);
       drain_scan ws nbr rel lnk up stamp tent tlen ep sib_only y
         (Array.unsafe_get off y)
         (Array.unsafe_get off (y + 1) - 1)
         l
     end);
    drain_chain ws off nbr rel lnk up stamp len parent cls tent tlen ep ccode
      sib_only l en
  end

let rec drain_levels ws off nbr rel lnk up stamp len parent cls tent tlen ep
    ccode sib_only l =
  if l <= ws.w_max_lvl then begin
    let e = Array.unsafe_get ws.w_bhead l in
    Array.unsafe_set ws.w_bhead l (-1);
    drain_chain ws off nbr rel lnk up stamp len parent cls tent tlen ep ccode
      sib_only l e;
    drain_levels ws off nbr rel lnk up stamp len parent cls tent tlen ep
      ccode sib_only (l + 1)
  end

(* Phase 2: peer routes. One peering hop from a customer-routed node,
   then extension across sibling links only. After phase 1 the touched
   list is exactly the Origin/Cust-settled set, so seeding scans only
   those nodes' edges — not all n nodes. *)
let rec seed_peer_edges ws nbr rel lnk up stamp tent tlen ep lx x k hi =
  if k <= hi then begin
    (if Array.unsafe_get rel k = Topology.code_peer
        && Array.unsafe_get up (Array.unsafe_get lnk k)
     then begin
       let y = Array.unsafe_get nbr k in
       if Array.unsafe_get stamp y <> ep then
         add_candidate ws tent tlen (lx + 1) x y
     end);
    seed_peer_edges ws nbr rel lnk up stamp tent tlen ep lx x (k + 1) hi
  end

let rec seed_peer ws off nbr rel lnk up stamp len tent tlen ep touched i t =
  if i < t then begin
    let x = Array.unsafe_get touched i in
    seed_peer_edges ws nbr rel lnk up stamp tent tlen ep
      (Array.unsafe_get len x) x
      (Array.unsafe_get off x)
      (Array.unsafe_get off (x + 1) - 1);
    seed_peer ws off nbr rel lnk up stamp len tent tlen ep touched (i + 1) t
  end

let phase_peer (adj : Topology.adj) ws r =
  let off = adj.Topology.adj_off and nbr = adj.Topology.adj_nbr
  and rel = adj.Topology.adj_rel and lnk = adj.Topology.adj_link
  and up = adj.Topology.adj_up in
  let stamp = r.stamp and tent = ws.w_tentative and tlen = ws.w_tlen
  and ep = r.epoch in
  ws.w_bent_used <- 0;
  ws.w_max_lvl <- 0;
  seed_peer ws off nbr rel lnk up stamp r.len tent tlen ep ws.w_touched 0
    ws.w_ntouched;
  drain_levels ws off nbr rel lnk up stamp r.len r.parent r.cls tent tlen ep
    ccode_peer true 1

(* Phase 3: provider routes. Cascades down provider→customer links from
   every node settled so far (the touched list after phases 1–2), plus
   sibling links. [adj_rel k = code_customer] means the neighbor is x's
   customer, i.e. x is the provider on that edge. *)
let rec seed_prov_edges ws nbr rel lnk up stamp tent tlen ep lx x k hi =
  if k <= hi then begin
    (if Array.unsafe_get rel k = Topology.code_customer
        && Array.unsafe_get up (Array.unsafe_get lnk k)
     then begin
       let y = Array.unsafe_get nbr k in
       if Array.unsafe_get stamp y <> ep then
         add_candidate ws tent tlen (lx + 1) x y
     end);
    seed_prov_edges ws nbr rel lnk up stamp tent tlen ep lx x (k + 1) hi
  end

let rec seed_prov ws off nbr rel lnk up stamp len tent tlen ep touched i t =
  if i < t then begin
    let x = Array.unsafe_get touched i in
    seed_prov_edges ws nbr rel lnk up stamp tent tlen ep
      (Array.unsafe_get len x) x
      (Array.unsafe_get off x)
      (Array.unsafe_get off (x + 1) - 1);
    seed_prov ws off nbr rel lnk up stamp len tent tlen ep touched (i + 1) t
  end

let phase_provider (adj : Topology.adj) ws r =
  let off = adj.Topology.adj_off and nbr = adj.Topology.adj_nbr
  and rel = adj.Topology.adj_rel and lnk = adj.Topology.adj_link
  and up = adj.Topology.adj_up in
  let stamp = r.stamp and tent = ws.w_tentative and tlen = ws.w_tlen
  and ep = r.epoch in
  ws.w_bent_used <- 0;
  ws.w_max_lvl <- 0;
  seed_prov ws off nbr rel lnk up stamp r.len tent tlen ep ws.w_touched 0
    ws.w_ntouched;
  drain_levels ws off nbr rel lnk up stamp r.len r.parent r.cls tent tlen ep
    ccode_prov false 1

let to_dest_with ws topo d =
  let n = Topology.num_nodes topo in
  if d < 0 || d >= n then invalid_arg "Solver.to_dest: destination out of range";
  let r = ws.r in
  if ws.cap < n then begin
    r.len <- Array.make n 0;
    r.parent <- Array.make n (-1);
    r.cls <- Array.make n 0;
    r.stamp <- Array.make n 0;
    ws.w_tentative <- Array.make n (-1);
    ws.w_tlen <- Array.make n (-1);
    ws.w_front <- Array.make n 0;
    ws.w_nextq <- Array.make n 0;
    ws.w_touched <- Array.make n 0;
    ws.w_bhead <- Array.make (n + 2) (-1);
    ws.cap <- n
  end;
  r.dest <- d;
  r.n <- n;
  r.epoch <- r.epoch + 1;
  ws.w_ntouched <- 0;
  (match ws.w_topo with
  | Some t when t == topo -> ()
  | Some _ | None ->
    ws.w_adj <- Topology.adj topo;
    ws.w_topo <- Some topo);
  let adj = ws.w_adj in
  phase_customer adj ws r;
  phase_peer adj ws r;
  phase_provider adj ws r;
  r

let to_dest topo d = to_dest_with (create_workspace ()) topo d

let reachable t v = t.stamp.(v) = t.epoch

let next_hop t v =
  if (not (reachable t v)) || v = t.dest then None else Some t.parent.(v)

let next_hop_id t v = if t.stamp.(v) <> t.epoch then -1 else t.parent.(v)

let class_of t v = if reachable t v then Some cls_table.(t.cls.(v)) else None

let class_raw t v = cls_table.(t.cls.(v))

let length t v = if reachable t v then Some t.len.(v) else None

let path t src =
  if not (reachable t src) then None
  else begin
    let rec build v steps =
      if steps > t.n then invalid_arg "Solver.path: parent cycle"
      else if v = t.dest then [ v ]
      else v :: build t.parent.(v) (steps + 1)
    in
    Some (build src 0)
  end

let iter_path t src f =
  if reachable t src then begin
    let rec go v steps =
      if steps > t.n then invalid_arg "Solver.iter_path: parent cycle"
      else begin
        f v;
        if v <> t.dest then go t.parent.(v) (steps + 1)
      end
    in
    go src 0
  end

let iter_reachable t f =
  for v = 0 to t.n - 1 do
    if reachable t v then f v
  done

let path_set_from topo ~src =
  let ws = create_workspace () in
  List.filter_map
    (fun d -> if d = src then None else path (to_dest_with ws topo d) src)
    (List.init (Topology.num_nodes topo) Fun.id)
