(* BGP restructured as three explicit RIB stages over the dirty-set
   scheduler:

     Adj-RIB-In   absorb updates / session events, mark affected
                  destinations dirty (with their root cause in RCN mode)
     Decision     drain the dirty set in deterministic order, re-select,
                  keep only destinations whose best route or its class
                  changed
     Adj-RIB-Out  diff the desired advertisement per (neighbor, changed
                  destination), exported at the class the route was
                  selected with, against what was last sent, and push
                  the net updates through the MRAI gate

   The absorb stage runs per delivered event; the decision and export
   stages run once per same-timestamp burst (the engine's batch end), so
   a correlated cut or a fan-in of simultaneous updates costs one
   decision pass instead of one per message.

   RIB storage is flat and node-indexed. The Adj-RIB-In and the
   Adj-RIB-Out hold one row per CSR half-edge ({!Topology.adj}: the slot
   of a neighbor in the node's adjacency slice), indexed by destination,
   [[]] for no route, each row allocated when the session first carries
   a route. The Loc-RIB is one destination-indexed array per node, with
   one byte per destination for the selected class. The MRAI state
   (deadline, armed flag, pending queue) is per half-edge too, so the
   stages allocate little beyond the messages and timers they return. *)

(* One update: [path] is the announced path starting at the sender,
   [[]] to withdraw; [cause] is the BGP-RCN root-cause annotation, the
   failed link whose loss triggered the update, packed ([no_cause] on
   plain BGP and on updates not caused by a failure). *)
type msg = {
  dest : int;
  path : Path.t;
  cause : int;
}

(* A normalized failed link (u < v) packed into one immediate int;
   [no_cause] marks an update with none. *)
let cause_shift = 31
let pack_cause u v = (u lsl cause_shift) lor v
let no_cause = -1

(* Per-node state. [lo]..[hi - 1] is the node's CSR slice: the half-edges
   that index its rows in the network-wide tables below. [best] is the
   Loc-RIB: the selected path per destination, starting at the node
   itself, and [rank] the class rank it was selected with, which is the
   class it is exported at. [dirty]/[causes] carry the absorb stage's
   marks to the next decision run; [nfresh] counts the node's half-edges
   flagged as owed a full-table export. *)
type node_state = {
  id : int;
  lo : int;
  hi : int;
  best : Path.t array;
  rank : Bytes.t;
  dirty : Dirty.t;
  causes : Flat_tbl.t; (* dest -> packed pending root cause *)
  mutable nfresh : int;
}

(* The updates one recompute owes its peers, in the order the export
   stage computes them, threaded per peer: [prev.(i)] is the previous
   update staged for the same half-edge (-1: none), [last.(k)] the
   latest one for half-edge [k], and [peers] holds the half-edges in
   first-appearance order. A recompute stages at most one update per
   (peer, destination). *)
type stage = {
  mutable msgs : msg array;
  mutable prev : int array;
  mutable len : int;
  last : int array;
  peers : int array;
  mutable npeers : int;
}

(* Network-wide tables, indexed by half-edge. [rib_in.(k)] is the
   Adj-RIB-In of session [k]: the last path the neighbor announced per
   destination, as announced (starting at the neighbor). [adv.(k)] is
   the Adj-RIB-Out: what was last sent over it. [pending.(k)] holds the
   MRAI batch, the latest pending update per destination ([no_msg] for
   none, [pending_len.(k)] of them), [deadline.(k)] the earliest time
   the next batch may leave and [armed] whether a flush timer is
   scheduled. [fresh] flags the sessions owed a full-table export. *)
type net = {
  topo : Topology.t;
  adj : Topology.adj;
  n : int;
  tr : Obs.Trace.t;
  states : node_state array;
  rib_in : Path.t array array;
  adv : Path.t array array;
  pending : msg array array;
  pending_len : int array;
  deadline : float array;
  armed : Bytes.t;
  fresh : Bytes.t;
  (* One decision run's changed destinations and their root causes;
     [nmoved] of them changed route, the rest only class. *)
  changed : int array;
  changed_cause : int array;
  mutable nchanged : int;
  mutable nmoved : int;
  stage : stage;
  top : Gao_rexford.best; (* one decision's running best *)
}

module Trace = Obs.Trace

(* Stable fingerprint of an announced path for [Trace.Rib_out] — replay
   only needs "same path or not", never the path back. *)
let path_sig p =
  List.fold_left (fun h x -> ((h * 1000003) + x + 1) land max_int) 17 p

let no_msg = { dest = -1; path = []; cause = no_cause }

let is_route = function [] -> false | _ :: _ -> true

(* Row [k] of a half-edge table, allocated on first use. *)
let row net rows ~empty k =
  let r = rows.(k) in
  if Array.length r > 0 then r
  else begin
    let r = Array.make net.n empty in
    rows.(k) <- r;
    r
  end

let entry rows k dest =
  let r = rows.(k) in
  if Array.length r = 0 then [] else Array.unsafe_get r dest

let session_up net k = net.adj.adj_up.(net.adj.adj_link.(k))

let flag bytes k on = Bytes.unsafe_set bytes k (if on then '\001' else '\000')
let flagged bytes k = Bytes.unsafe_get bytes k <> '\000'

(* Mark a destination for the next decision run. The most recent cause
   wins (matching sequential processing order); a causeless mark clears a
   stale one. *)
let mark net st ~cause dest =
  Dirty.mark st.dirty dest;
  if Trace.enabled net.tr then
    Trace.emit net.tr (Trace.Mark_dirty { node = st.id; dest });
  if cause <> no_cause then Flat_tbl.set st.causes dest cause
  else Flat_tbl.remove st.causes dest

(* --- MRAI gate (unchanged semantics) --- *)

(* Session MRAI, jittered ±25% deterministically per (node, peer). *)
let session_mrai mrai node peer =
  if mrai <= 0.0 then 0.0
  else
    let h = ((node * 7919) + (peer * 104729)) mod 1000 in
    mrai *. (0.75 +. (0.5 *. float_of_int h /. 1000.0))

let enqueue net k m =
  let q = row net net.pending ~empty:no_msg k in
  if q.(m.dest) == no_msg then net.pending_len.(k) <- net.pending_len.(k) + 1;
  q.(m.dest) <- m

let unqueue net k dest =
  if net.pending_len.(k) > 0 then begin
    let q = net.pending.(k) in
    if q.(dest) != no_msg then begin
      q.(dest) <- no_msg;
      net.pending_len.(k) <- net.pending_len.(k) - 1
    end
  end

let drop_pending net k =
  if net.pending_len.(k) > 0 then begin
    Array.fill net.pending.(k) 0 net.n no_msg;
    net.pending_len.(k) <- 0
  end

let stage_push s k m =
  if s.len = Array.length s.msgs then begin
    let cap = 2 * s.len in
    let msgs = Array.make cap no_msg and prev = Array.make cap (-1) in
    Array.blit s.msgs 0 msgs 0 s.len;
    Array.blit s.prev 0 prev 0 s.len;
    s.msgs <- msgs;
    s.prev <- prev
  end;
  s.msgs.(s.len) <- m;
  s.prev.(s.len) <- s.last.(k);
  if s.last.(k) < 0 then begin
    s.peers.(s.npeers) <- k;
    s.npeers <- s.npeers + 1
  end;
  s.last.(k) <- s.len;
  s.len <- s.len + 1

(* The staged updates leave through the MRAI gate. The gate is evaluated
   once per peer per recompute, not once per message: all the updates
   one decision pass owes a peer are a single wave-sized delta, so an
   open gate releases the whole group now (one deadline reset) and a
   closed gate queues the whole group (coalescing per prefix) behind one
   flush timer. Per-message gating would split a burst into one
   immediate update plus a timed remainder — pure MRAI overhead with no
   pacing benefit, since the burst left one recompute.

   The actions come out peer by peer in first-appearance order, each
   peer's updates in staging order: walking the peers and each peer's
   thread backwards, consing, builds the list in place. *)
let emit net st ~mrai ~now =
  let s = net.stage in
  let acc = ref [] in
  for g = s.npeers - 1 downto 0 do
    let k = s.peers.(g) in
    let peer = net.adj.adj_nbr.(k) in
    let dl = net.deadline.(k) in
    let i = ref s.last.(k) in
    if mrai <= 0.0 || now >= dl then begin
      net.deadline.(k) <- now +. session_mrai mrai st.id peer;
      while !i >= 0 do
        let m = s.msgs.(!i) in
        (* A flush timer due at this same instant may still be queued
           behind us: drop the updates this batch supersedes, or it
           would re-send an older route for the prefix after ours. *)
        unqueue net k m.dest;
        acc := Sim.Engine.Send (peer, m) :: !acc;
        i := s.prev.(!i)
      done
    end
    else begin
      while !i >= 0 do
        enqueue net k s.msgs.(!i);
        i := s.prev.(!i)
      done;
      if not (flagged net.armed k) then begin
        flag net.armed k true;
        acc := Sim.Engine.Timer (dl -. now, peer) :: !acc
      end
    end;
    s.last.(k) <- -1
  done;
  Array.fill s.msgs 0 s.len no_msg;
  s.len <- 0;
  s.npeers <- 0;
  !acc

(* The flush timer drains the peer's queue in ascending destination
   order. *)
let on_timer net ~mrai ~now ~node ~key:peer =
  let k = Topology.half_edge net.topo node peer in
  flag net.armed k false;
  if net.pending_len.(k) = 0 then []
  else begin
    net.pending_len.(k) <- 0;
    let q = net.pending.(k) in
    (* Session may have died while the batch was waiting. *)
    let live = session_up net k in
    let acc = ref [] in
    for dest = net.n - 1 downto 0 do
      let m = q.(dest) in
      if m != no_msg then begin
        q.(dest) <- no_msg;
        if live then acc := Sim.Engine.Send (peer, m) :: !acc
      end
    done;
    if live then net.deadline.(k) <- now +. session_mrai mrai node peer;
    !acc
  end

(* --- Adj-RIB-In stage --- *)

(* Whether [p] crosses the link u–v, in either direction. *)
let rec crosses p u v =
  match p with
  | a :: (b :: _ as rest) ->
    (a = u && b = v) || (a = v && b = u) || crosses rest u v
  | [ _ ] | [] -> false

(* Purge every Adj-RIB-In entry whose path traverses the failed link:
   the root-cause information lets a node discard stale alternatives at
   once instead of exploring them (BGP-RCN, Pei et al.). Marks the
   destinations whose candidate set changed, in ascending order. *)
let purge_cause net st c =
  let u, v = (c lsr cause_shift, c land ((1 lsl cause_shift) - 1)) in
  for dest = 0 to net.n - 1 do
    for k = st.lo to st.hi - 1 do
      let r = net.rib_in.(k) in
      if Array.length r > 0 && crosses r.(dest) u v then begin
        r.(dest) <- [];
        mark net st ~cause:c dest
      end
    done
  done

(* In full-recompute mode every absorbed event invalidates every known
   destination — the from-scratch baseline the bench compares against. *)
let mark_all_known net st =
  for dest = 0 to net.n - 1 do
    if is_route st.best.(dest) then Dirty.mark st.dirty dest
  done;
  for k = st.lo to st.hi - 1 do
    let r = net.rib_in.(k) in
    for dest = 0 to Array.length r - 1 do
      if is_route r.(dest) then Dirty.mark st.dirty dest
    done
  done;
  (* One bulk mark stands in for the per-destination spam. *)
  if Trace.enabled net.tr then
    Trace.emit net.tr (Trace.Mark_dirty { node = st.id; dest = -1 })

let rib_in_update net st ~rcn ~incremental ~src (m : msg) =
  if rcn && m.cause <> no_cause then purge_cause net st m.cause;
  let k = Topology.half_edge net.topo st.id src in
  (* A withdrawal of what was never learned allocates no row. *)
  if is_route m.path || is_route (entry net.rib_in k m.dest) then
    (row net net.rib_in ~empty:[] k).(m.dest) <- m.path;
  if m.dest <> st.id then mark net st ~cause:m.cause m.dest;
  if not incremental then mark_all_known net st

let owe_full_table net st k =
  if not (flagged net.fresh k) then begin
    flag net.fresh k true;
    st.nfresh <- st.nfresh + 1
  end

(* Session maintenance, also part of the absorb stage: a link down
   flushes everything learned from, advertised to and queued for that
   neighbor; a link up only notes that the peer is owed a full table —
   the export happens after the next decision run. *)
let session_change net st ~rcn ~incremental ~other ~up =
  let k = Topology.half_edge net.topo st.id other in
  if not up then begin
    drop_pending net k;
    if flagged net.fresh k then begin
      flag net.fresh k false;
      st.nfresh <- st.nfresh - 1
    end;
    let cause =
      if rcn then pack_cause (min st.id other) (max st.id other) else no_cause
    in
    let clear rows =
      let r = rows.(k) in
      for dest = 0 to Array.length r - 1 do
        if is_route r.(dest) then begin
          r.(dest) <- [];
          mark net st ~cause dest
        end
      done
    in
    clear net.rib_in;
    clear net.adv;
    (* In RCN mode the endpoint also drops its own stale alternatives
       through the dead link learned from other neighbors. *)
    if rcn then purge_cause net st cause
  end
  else owe_full_table net st k;
  if not incremental then mark_all_known net st

(* --- Decision stage --- *)

(* What [select] chose for a destination: a half-edge (the route is the
   node prepended to that session's Adj-RIB-In entry), or one of: *)
let no_route = -1
let claimed = -2 (* a claimed origination: [st.id; dest] *)
let itself = -3 (* the node's own prefix: [st.id] *)

(* Decision process for one destination: candidates are the Adj-RIB-In
   entries of live sessions that pass loop detection, learned through
   [Policy.learn] and ranked by the Standard discipline; the first of
   equally ranked candidates wins, and its class is [net.top]'s leader
   class. A claimed origination (static [originate] or an active hijack
   override) competes first. *)
let select net st ~policy dest =
  Gao_rexford.start net.top ~chooser:st.id ~dest;
  if dest = st.id then itself
  else begin
    let adj = net.adj in
    let winner =
      ref
        (if Policy.offer_claim policy net.top ~node:st.id ~dest then claimed
         else no_route)
    in
    for k = st.lo to st.hi - 1 do
      let r = net.rib_in.(k) in
      if Array.length r > 0 && session_up net k then
        match r.(dest) with
        | [] -> ()
        | p ->
          (* When the tail cannot be verified against the topology (a
             prefix hijack fabricates its last hop), plain BGP has no
             Permission Lists to check the announcement against: it
             trusts the sender and learns the route as if the neighbor
             originated the prefix, which also sets the class it is
             exported at. Unreachable under honest announcements, since
             every genuinely propagated path walks real links, so
             default runs never take it; it is exactly the credulity
             the containment experiments measure Centaur against. *)
          if
            (not (Path.contains p st.id))
            && Policy.learn policy net.top ~node:st.id ~peer:adj.adj_nbr.(k)
                 ~role:(Topology.rel_of_code adj.adj_rel.(k))
                 ~dest
                 ~neighbor_class:
                   (match Path_class.class_of net.topo p with
                   | Some cls -> cls
                   | None -> Gao_rexford.Origin)
                 ~len:(Path.length p) ~tail:p
          then winner := k
    done;
    !winner
  end

(* Whether the Loc-RIB entry [old] already is the route [w] stands for. *)
let holds net st dest w old =
  if w = itself then (match old with [ x ] -> x = st.id | _ -> false)
  else if w = no_route then not (is_route old)
  else if w = claimed then
    match old with [ x; y ] -> x = st.id && y = dest | _ -> false
  else
    match old with
    | x :: tail -> x = st.id && Path.equal tail net.rib_in.(w).(dest)
    | [] -> false

let route_of net st dest w =
  if w = itself then [ st.id ]
  else if w = no_route then []
  else if w = claimed then [ st.id; dest ]
  else st.id :: net.rib_in.(w).(dest)

(* Drain the dirty set and re-select each marked destination. Those
   whose best route changed, or whose route stayed but was selected at
   another class (a claim starting or ending beside a one-hop learned
   route), store the class and flow on to the export stage through
   [net.changed]. Only a changed route is a RIB change and reaches
   [track], the runner's uniform changed-destination interface. Nothing
   marks during the drain, so it takes one round and each destination
   changes at most once. *)
let decision_run net st ~policy ~track =
  net.nchanged <- 0;
  net.nmoved <- 0;
  Dirty.drain st.dirty (fun dest ->
      let w = select net st ~policy dest in
      let moved = not (holds net st dest w st.best.(dest)) in
      let rank = Gao_rexford.class_rank (Gao_rexford.leader_class net.top) in
      if moved || rank <> Char.code (Bytes.get st.rank dest) then begin
        if moved then begin
          let p = route_of net st dest w in
          st.best.(dest) <- p;
          if Trace.enabled net.tr then
            Trace.emit net.tr
              (Trace.Rib_change
                 { node = st.id; dest; withdrawn = not (is_route p) });
          track dest;
          net.nmoved <- net.nmoved + 1
        end;
        Bytes.set st.rank dest (Char.chr rank);
        net.changed.(net.nchanged) <- dest;
        net.changed_cause.(net.nchanged) <-
          Flat_tbl.find_default st.causes dest ~default:no_cause;
        net.nchanged <- net.nchanged + 1
      end);
  if Flat_tbl.length st.causes > 0 then Flat_tbl.clear st.causes

(* --- Adj-RIB-Out stage --- *)

(* Stage the net update owed to the peer on half-edge [k] for [dest]:
   the desired advertisement diffed against the Adj-RIB-Out entry. The
   desired advertisement is the selected path [p] if the export policy
   chain (default: the Gao–Rexford export rule) passes it at class [cls]
   and hop count [len], and split horizon allows it (never offer a path
   back to a node already on it); none otherwise. *)
let adv_delta net st ~policy ~dest ~cause ~p ~cls ~len k =
  let n = net.adj.adj_nbr.(k) in
  let desired =
    is_route p
    && (not (Path.contains p n))
    && Policy.export_ok policy ~node:st.id ~peer:n
         ~role:(Topology.rel_of_code net.adj.adj_rel.(k))
         ~dest ~cls ~len ~path:p
  in
  let current = entry net.adv k dest in
  if desired then begin
    if not (Path.equal p current) then begin
      (row net net.adv ~empty:[] k).(dest) <- p;
      if Trace.enabled net.tr then
        Trace.emit net.tr
          (Trace.Rib_out
             { node = st.id;
               peer = n;
               dest;
               withdraw = false;
               path_sig = path_sig p });
      stage_push net.stage k { dest; path = p; cause }
    end
  end
  else if is_route current then begin
    net.adv.(k).(dest) <- [];
    if Trace.enabled net.tr then
      Trace.emit net.tr
        (Trace.Rib_out
           { node = st.id; peer = n; dest; withdraw = true; path_sig = 0 });
    stage_push net.stage k { dest; path = []; cause }
  end

(* Diff [dest]'s advertisement toward every live session among
   half-edges [first]..[last], in ascending neighbor order, at the class
   the route was selected with. *)
let export_dest net st ~policy ~dest ~cause first last =
  let p = st.best.(dest) in
  let cls = Gao_rexford.class_of_rank (Char.code (Bytes.get st.rank dest)) in
  let len = Path.length p in
  for k = first to last do
    if session_up net k then
      adv_delta net st ~policy ~dest ~cause ~p ~cls ~len k
  done

let rib_out_updates net st ~policy =
  for i = 0 to net.nchanged - 1 do
    export_dest net st ~policy ~dest:net.changed.(i)
      ~cause:net.changed_cause.(i) st.lo (st.hi - 1)
  done

(* Full-table export to each freshly established session, in ascending
   destination order, deduplicated against anything the export stage
   already pushed this run. *)
let fresh_session_exports net st ~policy =
  if st.nfresh > 0 then begin
    st.nfresh <- 0;
    for k = st.lo to st.hi - 1 do
      if flagged net.fresh k then begin
        flag net.fresh k false;
        (* A session that died again before the batch closed gets
           nothing. *)
        if session_up net k then
          for dest = 0 to net.n - 1 do
            if is_route st.best.(dest) then
              export_dest net st ~policy ~dest ~cause:no_cause k k
          done
      end
    done
  end

(* One decision + export pass: the engine's batch end, shared by the
   cold-start path. [hist] shapes the per-recompute dirty-set size
   distribution — under wave batching its mean is the coalescing win. *)
let recompute net ~policy ~mrai ~now ~hist ~track ~node =
  let st = net.states.(node) in
  if Dirty.is_empty st.dirty && st.nfresh = 0 then []
  else begin
    let dirty = Dirty.cardinal st.dirty in
    Obs.Metrics.observe hist (float_of_int dirty);
    decision_run net st ~policy ~track;
    if Trace.enabled net.tr then
      Trace.emit net.tr
        (Trace.Recompute { node; dirty; changed = net.nmoved });
    rib_out_updates net st ~policy;
    fresh_session_exports net st ~policy;
    emit net st ~mrai ~now
  end

let create_net topo ~tr =
  let n = Topology.num_nodes topo in
  let adj = Topology.adj topo in
  let half_edges = adj.Topology.adj_off.(n) in
  let max_degree = ref 1 in
  let states =
    Array.init n (fun id ->
        let lo = adj.Topology.adj_off.(id)
        and hi = adj.Topology.adj_off.(id + 1) in
        max_degree := max !max_degree (hi - lo);
        { id;
          lo;
          hi;
          best = Array.make n [];
          rank = Bytes.make n '\000';
          dirty = Dirty.create ();
          causes = Flat_tbl.create ();
          nfresh = 0 })
  in
  { topo;
    adj;
    n;
    tr;
    states;
    rib_in = Array.make half_edges [||];
    adv = Array.make half_edges [||];
    pending = Array.make half_edges [||];
    pending_len = Array.make half_edges 0;
    deadline = Array.make half_edges neg_infinity;
    armed = Bytes.make half_edges '\000';
    fresh = Bytes.make half_edges '\000';
    changed = Array.make n 0;
    changed_cause = Array.make n no_cause;
    nchanged = 0;
    nmoved = 0;
    stage =
      { msgs = Array.make 64 no_msg;
        prev = Array.make 64 (-1);
        len = 0;
        last = Array.make half_edges (-1);
        peers = Array.make !max_degree 0;
        npeers = 0 };
    top = Gao_rexford.best Gao_rexford.Standard }

let network ?(mrai = 30.0) ?(rcn = false) ?(incremental = true)
    ?(trace = Trace.none) ?policy topo =
  let n = Topology.num_nodes topo in
  let policy = match policy with Some p -> p | None -> Policy.default () in
  let changed = Dirty.create ~size:n () in
  let track = Dirty.mark changed in
  let net = create_net topo ~tr:trace in
  let states = net.states in
  let metrics = Obs.Metrics.create () in
  let hist =
    Obs.Metrics.histogram metrics
      ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
      "bgp.recompute_dirty"
  in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src msg ->
          rib_in_update net states.(node) ~rcn ~incremental ~src msg;
          []);
      Sim.Engine.on_link_change =
        (fun ~now:_ ~node ~link_id ->
          let st = states.(node) in
          let link = Topology.link topo link_id in
          let other =
            if link.Topology.a = node then link.Topology.b
            else link.Topology.a
          in
          session_change net st ~rcn ~incremental ~other
            ~up:(Topology.is_up topo link_id);
          []);
      Sim.Engine.on_timer =
        (fun ~now ~node ~key -> on_timer net ~mrai ~now ~node ~key);
      Sim.Engine.on_batch_end =
        (fun ~now ~node ->
          recompute net ~policy ~mrai ~now ~hist ~track ~node) }
  in
  let engine =
    (* 19-byte UPDATE header + 4-byte NLRI, 4 bytes per AS hop of path
       attribute, 8 bytes for an RCN root-cause community. *)
    Sim.Engine.create ~trace ~metrics topo ~units:(fun _ -> 1)
      ~bytes:(fun m ->
        19 + 4
        + (4 * List.length m.path)
        + (if m.cause = no_cause then 0 else 8))
      ~handlers
  in
  let cold_start ?max_events () =
    Sim.Runner.cold_start_states ?max_events engine states (fun i st ->
        (* Originating the own prefix is just the first decision: mark it
           dirty and run the same pipeline as any other recompute.
           Claimed originations announce the same way. *)
        mark net st ~cause:no_cause st.id;
        List.iter
          (fun d -> mark net st ~cause:no_cause d)
          (Policy.origins policy ~node:i);
        recompute net ~policy ~mrai ~now:(Sim.Engine.now engine) ~hist ~track
          ~node:i)
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
        mark_all_known net st;
        List.iter
          (fun d -> Dirty.mark st.dirty d)
          (Policy.origins policy ~node);
        for k = st.lo to st.hi - 1 do
          if session_up net k then owe_full_table net st k
        done;
        Sim.Engine.perform engine ~node
          (recompute net ~policy ~mrai ~now:(Sim.Engine.now engine) ~hist
             ~track ~node))
      nodes
  in
  let best ~src ~dest =
    let b = states.(src).best in
    if dest < 0 || dest >= n then [] else b.(dest)
  in
  let next_hop ~src ~dest =
    match best ~src ~dest with _ :: hop :: _ -> Some hop | _ -> None
  in
  let path ~src ~dest =
    match best ~src ~dest with [] -> None | p -> Some p
  in
  Sim.Runner.make
    ~name:(if rcn then "bgp-rcn" else "bgp")
    ~engine ~cold_start ~changed ~on_policy_change ~next_hop ~path ()
