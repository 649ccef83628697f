type msg = {
  origin : int;
  link_id : int;
  seq : int;
  up : bool;
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
module ITbl = Hashtbl.Make (Int)

type node_state = {
  id : int;
  db : Flat_tbl.t; (* packed (origin, link) -> packed (seq, up) *)
  own_seq : Flat_tbl.t; (* link -> last sequence we issued *)
  outbox : (msg * int option) ITbl.t;
      (* floods deferred to the batch end, keyed like the LSDB; the value
         is the freshest installed LSA for that key this batch plus the
         neighbor to exclude from the flood (the one it arrived from) *)
  mutable tree : Dijkstra.tree option;
  mutable tree_version : int;
}

let db_key ~origin ~link_id = (origin lsl 31) lor link_id
let db_val ~seq ~up = (seq lsl 1) lor (if up then 1 else 0)
let val_seq v = v lsr 1
let val_up v = v land 1 = 1

let make_state id =
  { id;
    db = Flat_tbl.create ();
    own_seq = Flat_tbl.create ();
    outbox = ITbl.create 8;
    tree = None;
    tree_version = -1 }

let fresher st m =
  match Flat_tbl.find_opt st.db (db_key ~origin:m.origin ~link_id:m.link_id) with
  | None -> true
  | Some v -> m.seq > val_seq v

(* A node's view of one link: believed up when every LSA it holds for it
   says up — both endpoints flood, so after convergence this matches the
   ground truth. *)
let link_believed_up st topo link_id =
  let link = Topology.link topo link_id in
  let views =
    List.filter_map
      (fun origin -> Flat_tbl.find_opt st.db (db_key ~origin ~link_id))
      [ link.Topology.a; link.Topology.b ]
  in
  match views with
  | [] -> false
  | vs -> List.for_all val_up vs

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

let flood_except topo st ~except m =
  Topology.fold_neighbors topo st.id ~init:[] ~f:(fun acc n _ _ ->
      if Some n = except then acc else (n, m) :: acc)
  |> List.rev

(* Defer a flood to the batch end, one slot per LSDB key: when a burst
   installs several sequence numbers of the same LSA (a stale db-sync
   copy racing a fresh origination), only the freshest — the last
   installed, since [install] is guarded by [fresher] — leaves the node.
   Receivers converge to the same LSDB either way; the superseded
   intermediates were pure flood traffic. *)
let buffer_flood st ~except m =
  ITbl.replace st.outbox
    (db_key ~origin:m.origin ~link_id:m.link_id)
    (m, except)

(* Flush the deferred floods in ascending key order (determinism). *)
let flush_floods topo st =
  if ITbl.length st.outbox = 0 then []
  else begin
    let entries = ITbl.fold (fun key e acc -> (key, e) :: acc) st.outbox [] in
    ITbl.reset st.outbox;
    List.concat_map
      (fun (_, (m, except)) -> flood_except topo st ~except m)
      (List.sort (fun (k1, _) (k2, _) -> compare (k1 : int) k2) entries)
  end

let on_message ~changed ~tr topo states ~node ~src msg =
  let st = states.(node) in
  if fresher st msg then begin
    install ~changed ~tr topo st msg;
    buffer_flood st ~except:(Some src) msg
  end

let originate ~changed ~tr topo st link_id ~up =
  let seq = 1 + Flat_tbl.find_default st.own_seq link_id ~default:(-1) in
  Flat_tbl.set st.own_seq link_id seq;
  let m = { origin = st.id; link_id; seq; up } in
  install ~changed ~tr topo st m;
  m

let on_link_change ~changed ~tr topo states ~node ~link_id =
  let st = states.(node) in
  let up = Topology.is_up topo link_id in
  (* The ground truth flipped: effective state changes at once for every
     node that believed the link up, before any LSA propagates. *)
  mark_all changed topo;
  if Obs.Trace.enabled tr then
    Obs.Trace.emit tr (Obs.Trace.Mark_dirty { node; dest = -1 });
  buffer_flood st ~except:None (originate ~changed ~tr topo st link_id ~up);
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
  let changed = Dirty.create ~size:n () in
  let tr = trace in
  let states = Array.init n make_state in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src msg ->
          on_message ~changed ~tr topo states ~node ~src msg;
          []);
      Sim.Engine.on_link_change =
        (fun ~now:_ ~node ~link_id ->
          Sim.Runner.sends_to_actions
            (on_link_change ~changed ~tr topo states ~node ~link_id));
      Sim.Engine.on_timer = Sim.Engine.no_timers;
      (* Route computation stays pull-based (queries rebuild the SPF
         tree lazily, so a burst costs nothing until the next lookup and
         OSPF emits no [Recompute] spans on the trace) — but flooding is
         push-based and drains here: one deduplicated flood per LSDB key
         per same-timestamp burst, instead of one per absorbed LSA. *)
      Sim.Engine.on_batch_end =
        (fun ~now:_ ~node ->
          Sim.Runner.sends_to_actions (flush_floods topo states.(node))) }
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
           outbox. *)
        Sim.Runner.sends_to_actions
          (Topology.fold_neighbors topo st.id ~init:[]
             ~f:(fun acc _ _ link_id ->
               flood_except topo st ~except:None
                 (originate ~changed ~tr topo st link_id ~up:true)
               :: acc)
          |> List.rev |> List.concat))
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
