(* BGP restructured as three explicit RIB stages over the dirty-set
   scheduler:

     Adj-RIB-In   absorb updates / session events, mark affected
                  destinations dirty (with their root cause in RCN mode)
     Decision     drain the dirty set in deterministic order, re-select,
                  keep only destinations whose best route changed
     Adj-RIB-Out  diff the desired advertisement per (neighbor, changed
                  destination) against what was last sent, and push the
                  net updates through the MRAI gate

   The absorb stage runs per delivered event; the decision and export
   stages run once per same-timestamp burst (the engine's batch end), so
   a correlated cut or a fan-in of simultaneous updates costs one
   decision pass instead of one per message.

   RIB storage is flat: every (neighbor, destination) pair is one packed
   immediate int — [nbr lsl 31 lor dest] — so the RIB tables hash and
   compare ints, never tuples, and per-entry key allocation is gone.
   Side tables whose values are also ints (root causes, armed-timer
   flags) live in {!Flat_tbl}, with no per-entry heap records at all. *)

type msg = {
  dest : int;
  path : Path.t option;
  cause : (int * int) option;
      (* BGP-RCN root-cause annotation: the failed link (normalized
         endpoints) whose loss triggered this update; None on plain BGP
         and on updates not caused by a failure *)
}

module ITbl = Hashtbl.Make (Int)

let pk_shift = 31
let pk_mask = (1 lsl pk_shift) - 1
let pk ~nbr ~dest = (nbr lsl pk_shift) lor dest
let pk_nbr k = k lsr pk_shift
let pk_dest k = k land pk_mask

(* A normalized failed link (u < v) packed the same way. *)
let pack_cause (u, v) = (u lsl pk_shift) lor v
let unpack_cause c = (c lsr pk_shift, c land pk_mask)

(* Per-node state, one field group per stage. [rib_in] is the Adj-RIB-In:
   the last path each neighbor announced per destination (stored as
   announced, i.e. starting at the neighbor), keyed by the packed
   (neighbor, destination) int. [best] is the Loc-RIB: selected paths
   starting at the node itself. [adv] is the Adj-RIB-Out: what we last
   sent each neighbor, packed like [rib_in]. [dirty]/[causes]/
   [fresh_sessions] carry the absorb stage's marks to the next decision
   run. [pending]/[deadline]/[timer_armed] implement the per-peer MRAI
   batch: latest pending update per (peer, prefix), the earliest time
   the next batch may leave, and whether a flush timer is already
   scheduled. *)
type node_state = {
  id : int;
  rib_in : Path.t ITbl.t;
  best : Path.t ITbl.t;
  adv : Path.t ITbl.t;
  dirty : Dirty.t;
  causes : Flat_tbl.t; (* dest -> packed pending root cause *)
  mutable fresh_sessions : int list; (* peers owed a full-table export *)
  pending : msg ITbl.t ITbl.t;
  deadline : float ITbl.t;
  timer_armed : Flat_tbl.t;
}

module Trace = Obs.Trace

(* Stable fingerprint of an announced path for [Trace.Rib_out] — replay
   only needs "same path or not", never the path back. *)
let path_sig p =
  List.fold_left (fun h x -> ((h * 1000003) + x + 1) land max_int) 17 p

let make_state id =
  { id;
    rib_in = ITbl.create 64;
    best = ITbl.create 64;
    adv = ITbl.create 64;
    dirty = Dirty.create ();
    causes = Flat_tbl.create ();
    fresh_sessions = [];
    pending = ITbl.create 8;
    deadline = ITbl.create 8;
    timer_armed = Flat_tbl.create () }

(* Mark a destination for the next decision run. The most recent cause
   wins (matching sequential processing order); a causeless mark clears a
   stale one. *)
let mark ?cause ~tr st dest =
  Dirty.mark st.dirty dest;
  if Trace.enabled tr then
    Trace.emit tr (Trace.Mark_dirty { node = st.id; dest });
  match cause with
  | Some c -> Flat_tbl.set st.causes dest (pack_cause c)
  | None -> Flat_tbl.remove st.causes dest

(* --- MRAI gate (unchanged semantics) --- *)

(* Session MRAI, jittered ±25% deterministically per (node, peer). *)
let session_mrai mrai node peer =
  if mrai <= 0.0 then 0.0
  else
    let h = ((node * 7919) + (peer * 104729)) mod 1000 in
    mrai *. (0.75 +. (0.5 *. float_of_int h /. 1000.0))

(* Route updates [msgs] leave through the MRAI gate. The gate is
   evaluated once per peer per recompute, not once per message: all the
   updates one decision pass owes a peer are a single wave-sized delta,
   so an open gate releases the whole group now (one deadline reset) and
   a closed gate queues the whole group (coalescing per prefix) behind
   one flush timer. Per-message gating would split a burst into one
   immediate update plus a timed remainder — pure MRAI overhead with no
   pacing benefit, since the burst left one recompute. *)
let emit st ~mrai ~now msgs =
  (* Group per peer, preserving first-appearance order of peers and the
     per-peer message order. *)
  let groups = ref [] in
  List.iter
    (fun (peer, m) ->
      match List.assoc_opt peer !groups with
      | Some q -> q := m :: !q
      | None -> groups := (peer, ref [ m ]) :: !groups)
    msgs;
  List.concat_map
    (fun (peer, q) ->
      let batch = List.rev !q in
      let dl =
        Option.value (ITbl.find_opt st.deadline peer) ~default:neg_infinity
      in
      if mrai <= 0.0 || now >= dl then begin
        ITbl.replace st.deadline peer (now +. session_mrai mrai st.id peer);
        (* A flush timer due at this same instant may still be queued
           behind us: drop the updates this batch supersedes, or it
           would re-send an older route for the prefix after ours. *)
        (match ITbl.find_opt st.pending peer with
        | Some pending -> List.iter (fun m -> ITbl.remove pending m.dest) batch
        | None -> ());
        List.map (fun m -> Sim.Engine.Send (peer, m)) batch
      end
      else begin
        let pending =
          match ITbl.find_opt st.pending peer with
          | Some pending -> pending
          | None ->
            let pending = ITbl.create 16 in
            ITbl.replace st.pending peer pending;
            pending
        in
        List.iter (fun m -> ITbl.replace pending m.dest m) batch;
        if Flat_tbl.mem st.timer_armed peer then []
        else begin
          Flat_tbl.set st.timer_armed peer 1;
          [ Sim.Engine.Timer (dl -. now, peer) ]
        end
      end)
    (List.rev !groups)

let on_timer topo states ~mrai ~now ~node ~key:peer =
  let st = states.(node) in
  Flat_tbl.remove st.timer_armed peer;
  match ITbl.find_opt st.pending peer with
  | None -> []
  | Some q ->
    ITbl.remove st.pending peer;
    if ITbl.length q = 0 then []
    else if
      (* Session may have died while the batch was waiting. *)
      Topology.rel topo st.id peer = None
    then []
    else begin
      let batch = ITbl.fold (fun _dest m acc -> m :: acc) q [] in
      let batch =
        List.sort (fun m1 m2 -> compare m1.dest m2.dest) batch
      in
      ITbl.replace st.deadline peer (now +. session_mrai mrai st.id peer);
      List.map (fun m -> Sim.Engine.Send (peer, m)) batch
    end

(* --- Adj-RIB-In stage --- *)

(* Purge every Adj-RIB-In entry whose path traverses the failed link:
   the root-cause information lets a node discard stale alternatives at
   once instead of exploring them (BGP-RCN, Pei et al.). Marks the
   destinations whose candidate set changed. *)
let purge_cause ~tr st ((u, v) as link) =
  let doomed =
    ITbl.fold
      (fun key p acc ->
        if List.mem (u, v) (Path.links p) || List.mem (v, u) (Path.links p)
        then begin
          mark ~cause:link ~tr st (pk_dest key);
          key :: acc
        end
        else acc)
      st.rib_in []
  in
  List.iter (ITbl.remove st.rib_in) doomed

(* In full-recompute mode every absorbed event invalidates every known
   destination — the from-scratch baseline the bench compares against. *)
let mark_all_known ~tr st =
  ITbl.iter (fun dest _ -> Dirty.mark st.dirty dest) st.best;
  ITbl.iter (fun key _ -> Dirty.mark st.dirty (pk_dest key)) st.rib_in;
  (* One bulk mark stands in for the per-destination spam. *)
  if Trace.enabled tr then
    Trace.emit tr (Trace.Mark_dirty { node = st.id; dest = -1 })

let rib_in_update st ~rcn ~incremental ~tr ~src (m : msg) =
  (match (rcn, m.cause) with
  | true, Some link -> purge_cause ~tr st link
  | _ -> ());
  (match m.path with
  | Some p -> ITbl.replace st.rib_in (pk ~nbr:src ~dest:m.dest) p
  | None -> ITbl.remove st.rib_in (pk ~nbr:src ~dest:m.dest));
  if m.dest <> st.id then mark ?cause:m.cause ~tr st m.dest;
  if not incremental then mark_all_known ~tr st

(* Session maintenance, also part of the absorb stage: a link down
   flushes everything learned from, advertised to and queued for that
   neighbor; a link up only notes that the peer is owed a full table —
   the export happens after the next decision run. *)
let session_change st ~rcn ~incremental ~tr ~other ~up =
  if not up then begin
    ITbl.remove st.pending other;
    st.fresh_sessions <- List.filter (fun n -> n <> other) st.fresh_sessions;
    let cause =
      if rcn then Some (min st.id other, max st.id other) else None
    in
    let dead_keys tbl =
      ITbl.fold
        (fun key _ acc ->
          if pk_nbr key = other then begin
            mark ?cause ~tr st (pk_dest key);
            key :: acc
          end
          else acc)
        tbl []
    in
    List.iter (ITbl.remove st.rib_in) (dead_keys st.rib_in);
    List.iter (ITbl.remove st.adv) (dead_keys st.adv);
    (* In RCN mode the endpoint also drops its own stale alternatives
       through the dead link learned from other neighbors. *)
    match cause with
    | Some c -> purge_cause ~tr st c
    | None -> ()
  end
  else if not (List.mem other st.fresh_sessions) then
    st.fresh_sessions <- other :: st.fresh_sessions;
  if not incremental then mark_all_known ~tr st

(* --- Decision stage --- *)

(* Class of a route at [st.id]. When the path's tail cannot be verified
   against the topology (a prefix hijack fabricates its last hop), plain
   BGP has no Permission Lists to check the announcement against: it
   trusts the sender and classifies by the first hop's session role
   alone, as if the neighbor originated the prefix. Unreachable under
   honest announcements — every genuinely propagated path walks real
   links — so default runs never take the fallback; it is exactly the
   credulity the containment experiments measure Centaur against. *)
let trusted_class topo st p =
  match Path_class.class_of topo p with
  | Some cls -> cls
  | None -> (
    match p with
    | _ :: nbr :: _ -> (
      match Topology.rel topo st.id nbr with
      | Some role ->
        Gao_rexford.class_of_learned ~neighbor_role:role
          ~neighbor_class:Gao_rexford.Origin
      | None -> Gao_rexford.Prov)
    | _ -> Gao_rexford.Origin)

(* Decision process for one destination: candidates are the RIB-in
   entries of live sessions that pass loop detection, ranked by
   [Gao_rexford.compare_routes] under the Standard discipline (import
   preference, then the Gao–Rexford order). A claimed origination
   (static [originate] or an active hijack override) competes as class
   Origin, length 1 — it beats every learned route. *)
let select topo st ~policy dest =
  if dest = st.id then Some [ st.id ]
  else begin
    let best = ref None in
    let consider cand path =
      match !best with
      | Some (bc, _)
        when Gao_rexford.compare_routes Gao_rexford.Standard ~chooser:st.id
               ~dest cand bc
             >= 0 ->
        ()
      | Some _ | None -> best := Some (cand, path)
    in
    if Policy.claims_origin policy ~node:st.id ~dest then
      consider
        { Gao_rexford.pref = 0;
          cls = Gao_rexford.Origin;
          len = 1;
          next_hop = dest;
          via_sibling = false }
        [ st.id; dest ];
    Topology.iter_neighbors topo st.id (fun n role _ ->
        match ITbl.find_opt st.rib_in (pk ~nbr:n ~dest) with
        | None -> ()
        | Some p ->
          if not (Path.contains p st.id) then begin
            let path = st.id :: p in
            let cls = trusted_class topo st path in
            let len = Path.length path in
            let pref =
              Policy.import_eval policy ~node:st.id ~peer:n ~role ~dest ~cls
                ~len ~path
            in
            if pref >= 0 then
              consider
                { Gao_rexford.pref;
                  cls;
                  len;
                  next_hop = n;
                  via_sibling = role = Relationship.Sibling }
                path
          end);
    Option.map snd !best
  end

(* Drain the dirty set and re-select each marked destination; only those
   whose best route changed flow on to the export stage. [track] feeds
   the runner's uniform changed-destination interface. *)
let decision_run topo st ~policy ~tr ~track =
  let changed = ref [] in
  Dirty.drain st.dirty (fun dest ->
      let old_best = ITbl.find_opt st.best dest in
      let new_best = select topo st ~policy dest in
      let same =
        match (old_best, new_best) with
        | None, None -> true
        | Some a, Some b -> Path.equal a b
        | None, Some _ | Some _, None -> false
      in
      if not same then begin
        (match new_best with
        | None -> ITbl.remove st.best dest
        | Some p -> ITbl.replace st.best dest p);
        if Trace.enabled tr then
          Trace.emit tr
            (Trace.Rib_change
               { node = st.id; dest; withdrawn = new_best = None });
        track dest;
        changed :=
          (dest, Option.map unpack_cause (Flat_tbl.find_opt st.causes dest))
          :: !changed
      end);
  Flat_tbl.clear st.causes;
  List.rev !changed

(* --- Adj-RIB-Out stage --- *)

(* Advertisement due to neighbor [n] for [dest] under the export policy
   chain (default: the Gao–Rexford export rule) and split horizon (never
   offer a path back to a node already on it). A claimed origination
   exports as class Origin — that is what a real hijacker's announcement
   looks like on the wire. *)
let desired_adv topo st ~policy ~dest n role =
  match ITbl.find_opt st.best dest with
  | None -> None
  | Some p ->
    if Path.contains p n then None
    else
      let cls =
        if Policy.claims_origin policy ~node:st.id ~dest then
          Gao_rexford.Origin
        else trusted_class topo st p
      in
      if
        Policy.export_ok policy ~node:st.id ~peer:n ~role ~dest ~cls
          ~len:(Path.length p) ~path:p
      then Some p
      else None

(* Net update owed to one neighbor for one destination: the desired
   advertisement diffed against the Adj-RIB-Out entry. *)
let adv_delta topo st ~policy ~tr ~dest ~cause n role =
  let desired = desired_adv topo st ~policy ~dest n role in
  let current = ITbl.find_opt st.adv (pk ~nbr:n ~dest) in
  match (desired, current) with
  | None, None -> None
  | Some d, Some c when Path.equal d c -> None
  | Some d, _ ->
    ITbl.replace st.adv (pk ~nbr:n ~dest) d;
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Rib_out
           { node = st.id;
             peer = n;
             dest;
             withdraw = false;
             path_sig = path_sig d });
    Some (n, { dest; path = Some d; cause })
  | None, Some _ ->
    ITbl.remove st.adv (pk ~nbr:n ~dest);
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Rib_out
           { node = st.id; peer = n; dest; withdraw = true; path_sig = 0 });
    Some (n, { dest; path = None; cause })

let rib_out_updates topo st ~policy ~tr changed =
  List.concat_map
    (fun (dest, cause) ->
      Topology.fold_neighbors topo st.id ~init:[] ~f:(fun acc n role _ ->
          match adv_delta topo st ~policy ~tr ~dest ~cause n role with
          | Some update -> update :: acc
          | None -> acc)
      |> List.rev)
    changed

(* Full-table export to a freshly established session, deduplicated
   against anything the export stage already pushed this run. *)
let fresh_session_exports topo st ~policy ~tr =
  let fresh = st.fresh_sessions in
  st.fresh_sessions <- [];
  List.concat_map
    (fun other ->
      match Topology.rel topo st.id other with
      | None -> [] (* session died again before the batch closed *)
      | Some role ->
        ITbl.fold (fun dest _ acc -> dest :: acc) st.best []
        |> List.sort compare
        |> List.filter_map (fun dest ->
               adv_delta topo st ~policy ~tr ~dest ~cause:None other role))
    (List.sort compare fresh)

(* One decision + export pass: the engine's batch end, shared by the
   cold-start path. [hist] shapes the per-recompute dirty-set size
   distribution — under wave batching its mean is the coalescing win. *)
let recompute topo states ~policy ~mrai ~now ~tr ~hist ~track ~node =
  let st = states.(node) in
  if Dirty.is_empty st.dirty && st.fresh_sessions = [] then []
  else begin
    let dirty = Dirty.cardinal st.dirty in
    Obs.Metrics.observe hist (float_of_int dirty);
    let changed = decision_run topo st ~policy ~tr ~track in
    if Trace.enabled tr then
      Trace.emit tr
        (Trace.Recompute { node; dirty; changed = List.length changed });
    let msgs = rib_out_updates topo st ~policy ~tr changed in
    let msgs = msgs @ fresh_session_exports topo st ~policy ~tr in
    emit st ~mrai ~now msgs
  end

let network ?(mrai = 30.0) ?(rcn = false) ?(incremental = true)
    ?(trace = Trace.none) ?policy topo =
  let n = Topology.num_nodes topo in
  let policy = match policy with Some p -> p | None -> Policy.default () in
  let changed = Dirty.create ~size:n () in
  let track = Dirty.mark changed in
  let tr = trace in
  let states = Array.init n make_state in
  let metrics = Obs.Metrics.create () in
  let hist =
    Obs.Metrics.histogram metrics
      ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
      "bgp.recompute_dirty"
  in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src msg ->
          rib_in_update states.(node) ~rcn ~incremental ~tr ~src msg;
          []);
      Sim.Engine.on_link_change =
        (fun ~now:_ ~node ~link_id ->
          let st = states.(node) in
          let link = Topology.link topo link_id in
          let other =
            if link.Topology.a = node then link.Topology.b
            else link.Topology.a
          in
          session_change st ~rcn ~incremental ~tr ~other
            ~up:(Topology.is_up topo link_id);
          []);
      Sim.Engine.on_timer =
        (fun ~now ~node ~key -> on_timer topo states ~mrai ~now ~node ~key);
      Sim.Engine.on_batch_end =
        (fun ~now ~node ->
          recompute topo states ~policy ~mrai ~now ~tr ~hist ~track ~node) }
  in
  let engine =
    (* 19-byte UPDATE header + 4-byte NLRI, 4 bytes per AS hop of path
       attribute, 8 bytes for an RCN root-cause community. *)
    Sim.Engine.create ~trace ~metrics topo ~units:(fun _ -> 1)
      ~bytes:(fun m ->
        19 + 4
        + (match m.path with None -> 0 | Some p -> 4 * List.length p)
        + (match m.cause with None -> 0 | Some _ -> 8))
      ~handlers
  in
  let cold_start ?max_events () =
    Sim.Runner.cold_start_states ?max_events engine states (fun i st ->
        (* Originating the own prefix is just the first decision: mark it
           dirty and run the same pipeline as any other recompute.
           Claimed originations announce the same way. *)
        mark ~tr st st.id;
        List.iter
          (fun d -> mark ~tr st d)
          (Policy.origins policy ~node:i);
        recompute topo states ~policy ~mrai ~now:(Sim.Engine.now engine) ~tr
          ~hist ~track ~node:i)
  in
  (* Policy poke: the mutated overrides can change any import ranking or
     export decision, so every known destination goes back through the
     decision process, and — because an export chain can flip while the
     best route stands — every live session is owed a full-table
     re-export diff (the fresh-session path already diffs against the
     Adj-RIB-Out, so unchanged advertisements stay silent). *)
  let on_policy_change nodes =
    List.iter
      (fun node ->
        let st = states.(node) in
        mark_all_known ~tr st;
        List.iter
          (fun d -> Dirty.mark st.dirty d)
          (Policy.origins policy ~node);
        let live =
          Topology.fold_neighbors topo st.id ~init:[] ~f:(fun acc nb _ _ ->
              nb :: acc)
        in
        st.fresh_sessions <-
          List.sort_uniq compare (live @ st.fresh_sessions);
        Sim.Engine.perform engine ~node
          (recompute topo states ~policy ~mrai ~now:(Sim.Engine.now engine)
             ~tr ~hist ~track ~node))
      nodes
  in
  let next_hop ~src ~dest =
    match ITbl.find_opt states.(src).best dest with
    | Some (_ :: hop :: _) -> Some hop
    | Some _ | None -> None
  in
  let path ~src ~dest = ITbl.find_opt states.(src).best dest in
  Sim.Runner.make
    ~name:(if rcn then "bgp-rcn" else "bgp")
    ~engine ~cold_start ~changed ~on_policy_change ~next_hop ~path ()
