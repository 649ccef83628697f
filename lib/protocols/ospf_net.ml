type msg = {
  origin : int;
  link_id : int;
  seq : int;
  up : bool;
}

(* The floods a node defers to the batch end, one slot per LSDB key,
   kept sorted by key (a binary-search insert) so the flush drains them
   in ascending key order without a sort: [lsas.(i)] is the freshest LSA
   installed for [keys.(i)] this batch and [skip.(i)] the neighbor to
   leave out of its flood (the one it arrived from), -1 for none. The
   engine closes a node's batch before it processes any other event, so
   whatever is buffered belongs to the node whose batch is open: one
   outbox serves the whole network. *)
type outbox = {
  mutable keys : int array;
  mutable lsas : msg array;
  mutable skip : int array;
  mutable len : int;
}

(* Per-node link-state database plus the cached shortest-path tree.
   [tree] is the last SPF result over the node's believed topology;
   [tree_version] stamps the ground-truth {!Topology.state_version} it
   was computed under, so a ground-truth flip the node has not absorbed
   yet invalidates the cache at the next query. Believed-state changes
   invalidate (or deliberately keep) the cache at LSA-install time.

   The LSDB is fully flat: an LSA's key (origin, link) and value
   (sequence, up-flag) are each one packed immediate int, so the whole
   database is two int arrays ({!Flat_tbl}) — no per-entry records. *)
type node_state = {
  id : int;
  db : Flat_tbl.t; (* packed (origin, link) -> packed (seq, up) *)
  own_seq : Flat_tbl.t; (* link -> last sequence we issued *)
  mutable tree : Dijkstra.tree option;
  mutable tree_version : int;
}

let db_key ~origin ~link_id = (origin lsl 31) lor link_id
let db_val ~seq ~up = (seq lsl 1) lor (if up then 1 else 0)
let val_seq v = v lsr 1
let val_up v = v land 1 = 1

let no_lsa = { origin = -1; link_id = -1; seq = -1; up = false }

let make_state id =
  { id;
    db = Flat_tbl.create ();
    own_seq = Flat_tbl.create ();
    tree = None;
    tree_version = -1 }

(* The LSDB value under a key, -1 when absent (values are non-negative). *)
let lookup st key = Flat_tbl.find_default st.db key ~default:(-1)

let fresher st m =
  let v = lookup st (db_key ~origin:m.origin ~link_id:m.link_id) in
  v < 0 || m.seq > val_seq v

(* A node's view of one link: believed up when every LSA it holds for it
   says up (and it holds one) — both endpoints flood, so after
   convergence this matches the ground truth. *)
let link_believed_up st topo link_id =
  let link = Topology.link topo link_id in
  let va = lookup st (db_key ~origin:link.Topology.a ~link_id)
  and vb = lookup st (db_key ~origin:link.Topology.b ~link_id) in
  (va >= 0 || vb >= 0) && (va < 0 || val_up va) && (vb < 0 || val_up vb)

(* The link state the route computation sees: actually up (messages over
   a dead link are lost regardless of belief) and believed up. *)
let effective_up st topo link_id =
  Topology.is_up topo link_id && link_believed_up st topo link_id

(* Incremental-SPF cache decision after the effective state of [link_id]
   flipped at this node. The cached tree stays valid exactly when the
   flip provably cannot alter any shortest path:
   - a link going {e down} that is not a tree edge removes only unused
     capacity;
   - a link coming {e up} between two unreachable nodes cannot create a
     path from the (reachable) root;
   - a link coming up that offers no path at most as short as the
     existing distances changes nothing — [<=] rather than [<] because
     Dijkstra breaks distance ties toward the lowest predecessor id, so
     an equal-cost arrival can still rewrite the tree. *)
let note_effective_change st topo link_id ~now_up =
  match st.tree with
  | None -> ()
  | Some tree ->
    if st.tree_version <> Topology.state_version topo then st.tree <- None
    else begin
      let link = Topology.link topo link_id in
      let a = link.Topology.a and b = link.Topology.b in
      let keep =
        if not now_up then
          not
            (Dijkstra.predecessor tree b = Some a
            || Dijkstra.predecessor tree a = Some b)
        else begin
          let d v =
            Option.value (Dijkstra.dist tree v) ~default:infinity
          in
          let da = d a and db = d b and w = link.Topology.delay in
          if da = infinity && db = infinity then true
          else not (da +. w <= db || db +. w <= da)
        end
      in
      if not keep then st.tree <- None
    end

(* Report every destination on the change feed. The feed holds only
   this range and empties only when a reader takes it, so between two
   reads (all through a cold start, for one) it is full after the first
   effective change, and marking the range again would change nothing. *)
let mark_all changed topo =
  let n = Topology.num_nodes topo in
  if Dirty.cardinal changed <> n then Dirty.mark_range changed 0 (n - 1)

(* Install an LSA; when it flips the link's effective state, every
   destination may re-route, so the whole range is reported on the
   uniform changed-destination feed (a deliberate over-approximation —
   see {!Sim.Runner.t.changed_dests}) and the SPF cache is re-examined. *)
let install ~changed ~tr topo st m =
  let before = effective_up st topo m.link_id in
  Flat_tbl.set st.db
    (db_key ~origin:m.origin ~link_id:m.link_id)
    (db_val ~seq:m.seq ~up:m.up);
  let after = effective_up st topo m.link_id in
  if before <> after then begin
    mark_all changed topo;
    (* Every destination may re-route: one bulk mark on the trace. *)
    if Obs.Trace.enabled tr then
      Obs.Trace.emit tr (Obs.Trace.Mark_dirty { node = st.id; dest = -1 });
    note_effective_change st topo m.link_id ~now_up:after
  end

(* Cons [m]'s flood to every live neighbor but [except] onto [acc], in
   ascending neighbor order. *)
let flood (adj : Topology.adj) st ~except m acc =
  let acc = ref acc in
  for k = adj.adj_off.(st.id + 1) - 1 downto adj.adj_off.(st.id) do
    let nb = adj.adj_nbr.(k) in
    if nb <> except && adj.adj_up.(adj.adj_link.(k)) then
      acc := Sim.Engine.Send (nb, m) :: !acc
  done;
  !acc

(* Defer a flood to the batch end, one slot per LSDB key: when a burst
   installs several sequence numbers of the same LSA (a stale db-sync
   copy racing a fresh origination), only the freshest — the last
   installed, since [install] is guarded by [fresher] — leaves the node.
   Receivers converge to the same LSDB either way; the superseded
   intermediates were pure flood traffic. *)
let buffer_flood ob ~except m =
  let key = db_key ~origin:m.origin ~link_id:m.link_id in
  let lo = ref 0 and hi = ref ob.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ob.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if not (i < ob.len && ob.keys.(i) = key) then begin
    if ob.len = Array.length ob.keys then begin
      let cap = max 8 (2 * ob.len) in
      let grow a fill =
        let b = Array.make cap fill in
        Array.blit a 0 b 0 ob.len;
        b
      in
      ob.keys <- grow ob.keys 0;
      ob.lsas <- grow ob.lsas no_lsa;
      ob.skip <- grow ob.skip 0
    end;
    let tail = ob.len - i in
    Array.blit ob.keys i ob.keys (i + 1) tail;
    Array.blit ob.lsas i ob.lsas (i + 1) tail;
    Array.blit ob.skip i ob.skip (i + 1) tail;
    ob.keys.(i) <- key;
    ob.len <- ob.len + 1
  end;
  ob.lsas.(i) <- m;
  ob.skip.(i) <- except

(* Flush the deferred floods in ascending key order (determinism),
   consing from the last. *)
let flush_floods adj ob st =
  let acc = ref [] in
  for i = ob.len - 1 downto 0 do
    acc := flood adj st ~except:ob.skip.(i) ob.lsas.(i) !acc;
    ob.lsas.(i) <- no_lsa
  done;
  ob.len <- 0;
  !acc

let on_message ~changed ~tr ~outbox topo states ~node ~src msg =
  let st = states.(node) in
  if fresher st msg then begin
    install ~changed ~tr topo st msg;
    buffer_flood outbox ~except:src msg
  end

let originate ~changed ~tr topo st link_id ~up =
  let seq = 1 + Flat_tbl.find_default st.own_seq link_id ~default:(-1) in
  Flat_tbl.set st.own_seq link_id seq;
  let m = { origin = st.id; link_id; seq; up } in
  install ~changed ~tr topo st m;
  m

let on_link_change ~changed ~tr ~outbox topo states ~node ~link_id =
  let st = states.(node) in
  let up = Topology.is_up topo link_id in
  (* The ground truth flipped: effective state changes at once for every
     node that believed the link up, before any LSA propagates. *)
  mark_all changed topo;
  if Obs.Trace.enabled tr then
    Obs.Trace.emit tr (Obs.Trace.Mark_dirty { node; dest = -1 });
  buffer_flood outbox ~except:(-1) (originate ~changed ~tr topo st link_id ~up);
  if not up then []
  else begin
    (* Database exchange over the restored adjacency: send the peer our
       whole LSDB, as OSPF does when an adjacency forms. Targeted at one
       neighbor, not a flood, so it leaves immediately. *)
    let link = Topology.link topo link_id in
    let other =
      if link.Topology.a = node then link.Topology.b else link.Topology.a
    in
    Flat_tbl.fold st.db ~init:[] ~f:(fun acc key v ->
        Sim.Engine.Send
          ( other,
            { origin = key lsr 31;
              link_id = key land ((1 lsl 31) - 1);
              seq = val_seq v;
              up = val_up v } )
        :: acc)
  end

(* Dijkstra over the node's believed topology, cached until an install or
   a ground-truth flip invalidates it. [incremental:false] disables the
   cache — a from-scratch SPF per query, the bench baseline. *)
let tree_of ~incremental topo st =
  let version = Topology.state_version topo in
  match st.tree with
  | Some tree when incremental && st.tree_version = version -> tree
  | _ ->
    let tree =
      Dijkstra.from_filtered topo ~src:st.id
        ~link_ok:(fun link_id -> link_believed_up st topo link_id)
    in
    if incremental then begin
      st.tree <- Some tree;
      st.tree_version <- version
    end;
    tree

(* [policy] is accepted for uniformity with the other nets but unused:
   OSPF has no policy knobs — "OSPF does not implement policies" — so
   leak/claim overrides cannot be expressed and the runner's
   [on_policy_change] stays the default no-op. *)
let network ?(incremental = true) ?(trace = Obs.Trace.none)
    ?policy:(_ : Policy.compiled option) topo =
  let n = Topology.num_nodes topo in
  let adj = Topology.adj topo in
  let changed = Dirty.create ~size:n () in
  let tr = trace in
  let states = Array.init n make_state in
  let outbox = { keys = [||]; lsas = [||]; skip = [||]; len = 0 } in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src msg ->
          on_message ~changed ~tr ~outbox topo states ~node ~src msg;
          []);
      Sim.Engine.on_link_change =
        (fun ~now:_ ~node ~link_id ->
          on_link_change ~changed ~tr ~outbox topo states ~node ~link_id);
      Sim.Engine.on_timer = Sim.Engine.no_timers;
      (* Route computation stays pull-based (queries rebuild the SPF
         tree lazily, so a burst costs nothing until the next lookup and
         OSPF emits no [Recompute] spans on the trace) — but flooding is
         push-based and drains here: one deduplicated flood per LSDB key
         per same-timestamp burst, instead of one per absorbed LSA. *)
      Sim.Engine.on_batch_end =
        (fun ~now:_ ~node -> flush_floods adj outbox states.(node)) }
  in
  let engine =
    Sim.Engine.create ~trace topo ~units:(fun _ -> 1)
      ~bytes:(fun _ -> 33)
      ~handlers
  in
  let cold_start ?max_events () =
    Sim.Runner.cold_start_states ?max_events engine states (fun _ st ->
        (* Init runs outside any delivery batch, so the cold-start
           originations flood immediately rather than through the
           outbox: one LSA per live adjacent link, originated in
           ascending neighbor order (the order fixes the LSDB's slot
           layout, hence the database exchanges' order), each flooded
           to every live neighbor. Each LSA is originated before the
           later links' floods are built, and its own are consed in
           front of them. *)
        let hi = adj.adj_off.(st.id + 1) in
        let rec originate_from k =
          if k = hi then []
          else
            let link_id = adj.adj_link.(k) in
            if adj.adj_up.(link_id) then
              let m = originate ~changed ~tr topo st link_id ~up:true in
              flood adj st ~except:(-1) m (originate_from (k + 1))
            else originate_from (k + 1)
        in
        originate_from adj.adj_off.(st.id))
  in
  let path ~src ~dest =
    Dijkstra.path_to (tree_of ~incremental topo states.(src)) dest
  in
  let next_hop ~src ~dest =
    match path ~src ~dest with
    | Some (_ :: hop :: _) -> Some hop
    | Some _ | None -> None
  in
  Sim.Runner.make ~name:"ospf" ~engine ~cold_start ~changed ~next_hop ~path
    ()
