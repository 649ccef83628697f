module Imap = Map.Make (Int)

(* One session per live neighbor: the neighbor's announced P-graph, the
   cache of paths derived from it, and an inverted index (node -> dests
   whose cached path visits it) so a link change maps to the small set of
   destinations it can affect. *)
type session = {
  mutable pg : Pgraph.t;
  cache : (int, Path.t) Hashtbl.t; (* dest -> derived path (starts at nbr) *)
  usage : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  (* Marked destinations that failed to derive (transient inconsistency,
     e.g. a link the import filter dropped): retried on every delta. *)
  pending : (int, unit) Hashtbl.t;
}

type t = {
  node_id : int;
  topo : Topology.t;
  mutable sessions : session Imap.t;
  selected : (int, Path.t) Hashtbl.t; (* dest -> my path (starts at me) *)
  local : Builder.t;
  mutable exports : Builder.t Imap.t; (* per neighbor *)
  (* Destinations whose selection must be revisited: every absorbed
     delta and adjacency change marks here (across all sessions), and
     one [recompute] drains it — the cross-session invalidation shares
     the dirty-set scheduler with the other protocols. *)
  dirty : Dirty.t;
  on_change : (int -> unit) option; (* selection-change tap *)
  policy : Policy.compiled;
}

type output = (int * Announce.t) list

let create ?on_change ?policy topo ~id =
  { node_id = id;
    topo;
    sessions = Imap.empty;
    selected = Hashtbl.create 64;
    local = Builder.create ~root:id;
    exports = Imap.empty;
    dirty = Dirty.create ();
    on_change;
    policy = (match policy with Some p -> p | None -> Policy.default ()) }

let id t = t.node_id

let new_session ~neighbor =
  { pg = Pgraph.create ~root:neighbor;
    cache = Hashtbl.create 64;
    usage = Hashtbl.create 64;
    pending = Hashtbl.create 8 }

(* --- derived-path cache maintenance --- *)

let usage_remove s dest p =
  List.iter
    (fun node ->
      match Hashtbl.find_opt s.usage node with
      | None -> ()
      | Some set ->
        Hashtbl.remove set dest;
        if Hashtbl.length set = 0 then Hashtbl.remove s.usage node)
    p

let usage_add s dest p =
  List.iter
    (fun node ->
      let set =
        match Hashtbl.find_opt s.usage node with
        | Some set -> set
        | None ->
          let set = Hashtbl.create 8 in
          Hashtbl.replace s.usage node set;
          set
      in
      Hashtbl.replace set dest ())
    p

(* Re-derive one destination from the session's graph; true iff the
   cached path changed. *)
let rederive s ~dest =
  let old_path = Hashtbl.find_opt s.cache dest in
  let new_path =
    if Pgraph.is_dest s.pg dest then Pgraph.derive_path s.pg ~dest else None
  in
  (match new_path with
  | None when Pgraph.is_dest s.pg dest -> Hashtbl.replace s.pending dest ()
  | None | Some _ -> Hashtbl.remove s.pending dest);
  let same =
    match (old_path, new_path) with
    | None, None -> true
    | Some a, Some b -> Path.equal a b
    | None, Some _ | Some _, None -> false
  in
  if not same then begin
    (match old_path with
    | Some p ->
      usage_remove s dest p;
      Hashtbl.remove s.cache dest
    | None -> ());
    match new_path with
    | Some p ->
      Hashtbl.replace s.cache dest p;
      usage_add s dest p
    | None -> ()
  end;
  not same

(* Destinations an incoming delta can affect: changed destination marks,
   destinations mentioned in changed Permission Lists (old and new), and
   destinations whose cached path visits an endpoint of a changed link. *)
let affected_dests s (delta : Pgraph.delta) =
  let acc = Hashtbl.create 64 in
  let add d = Hashtbl.replace acc d () in
  List.iter add delta.Pgraph.add_dests;
  List.iter add delta.Pgraph.remove_dests;
  Hashtbl.iter (fun d () -> add d) s.pending;
  let add_usage node =
    match Hashtbl.find_opt s.usage node with
    | None -> ()
    | Some set -> Hashtbl.iter (fun d () -> add d) set
  in
  let add_plist = function
    | None -> ()
    | Some pl -> List.iter add (Permission_list.dests pl)
  in
  (* Derivation of a destination reads only the in-link sets (and
     Permission Lists) of the nodes on its path, so a changed link
     (p, c) can only affect destinations whose cached path visits the
     child [c] — those are all in usage(c), including every destination
     the link's OLD Permission List names — plus destinations whose
     permitted next hop the NEW Permission List changes (reroutes onto a
     link that was already present). *)
  List.iter
    (fun (p, c, pl) ->
      match pl with
      | Some new_pl ->
        (* The child is multi-homed in the sender's view: the link only
           carries the destinations its Permission List names, so only
           destinations whose permitted mapping changed can reroute. *)
        let old_pl =
          match Pgraph.link_data s.pg ~parent:p ~child:c with
          | Some { Pgraph.plist = Some old_pl; _ } -> old_pl
          | Some { Pgraph.plist = None; _ } | None -> Permission_list.empty
        in
        List.iter add (Permission_list.changed_dests old_pl new_pl)
      | None ->
        (* Single-homed child: every destination routed through [c] may
           change parent (also covers a Permission List being dropped
           when multi-homing ends). *)
        add_usage c)
    delta.Pgraph.add_links;
  List.iter
    (fun (p, c) ->
      match Pgraph.link_data s.pg ~parent:p ~child:c with
      | Some { Pgraph.plist = Some old_pl; _ } ->
        (* The old Permission List names exactly the link's users. *)
        add_plist (Some old_pl)
      | Some { Pgraph.plist = None; _ } | None -> add_usage c)
    delta.Pgraph.remove_links;
  acc

(* --- selection --- *)

let candidate_of_path t ~neighbor ~role down_path =
  if Path.contains down_path t.node_id then None
  else
    (* One walk computes the route's class at the neighbor; both the
       verification check (was the neighbor allowed to offer this under
       the baseline contract?) and our own class derive from it. The
       contract check is always Gao–Rexford, never the offering node's
       configured policy — a leaker's permissive export chain doesn't
       make its announcements acceptable here, which is exactly how
       Centaur contains leaked and hijacked routes. *)
    match Path_class.class_of t.topo down_path with
    | None ->
      Policy.note_reject t.policy;
      None
    | Some neighbor_class ->
      if
        not
          (Gao_rexford.exportable ~cls:neighbor_class
             ~to_role:(Relationship.invert role))
      then begin
        Policy.note_reject t.policy;
        None
      end
      else
        let cls =
          Gao_rexford.class_of_learned ~neighbor_role:role ~neighbor_class
        in
        let path = t.node_id :: down_path in
        let len = Path.length path in
        let pref =
          Policy.import_eval t.policy ~node:t.node_id ~peer:neighbor ~role
            ~dest:(Path.destination down_path) ~cls ~len ~path
        in
        if pref < 0 then None
        else
          Some
            ( path,
              { Gao_rexford.pref;
                cls;
                len;
                next_hop = neighbor;
                via_sibling = role = Relationship.Sibling } )

(* Keep [best] unless [entry] ranks strictly above it. Centaur selects
   like BGP's decision process: the Standard discipline. *)
let better ~chooser ~dest best ((_, c) as entry) =
  match best with
  | Some (_, bc)
    when Gao_rexford.compare_routes Gao_rexford.Standard ~chooser ~dest c bc
         >= 0 ->
    best
  | Some _ | None -> Some entry

let best_candidate t ~dest =
  let chooser = t.node_id in
  (* A claimed origination (static [originate] or an active hijack
     override) beats everything: class Origin, length 1. *)
  let claim =
    if dest <> chooser && Policy.claims_origin t.policy ~node:chooser ~dest
    then
      Some
        ( [ chooser; dest ],
          { Gao_rexford.pref = 0;
            cls = Gao_rexford.Origin;
            len = 1;
            next_hop = dest;
            via_sibling = false } )
    else None
  in
  Topology.fold_neighbors t.topo chooser ~init:claim ~f:(fun best n role _ ->
      let best =
        match Imap.find_opt n t.sessions with
        | None -> best
        | Some s -> (
          match Hashtbl.find_opt s.cache dest with
          | None -> best
          | Some down_path -> (
            match candidate_of_path t ~neighbor:n ~role down_path with
            | None -> best
            | Some c -> better ~chooser ~dest best c))
      in
      if dest <> n then best
      else
        let cls =
          Gao_rexford.class_of_learned ~neighbor_role:role
            ~neighbor_class:Gao_rexford.Origin
        in
        let path = [ chooser; n ] in
        let pref =
          Policy.import_eval t.policy ~node:chooser ~peer:n ~role ~dest ~cls
            ~len:1 ~path
        in
        if pref < 0 then best
        else
          better ~chooser ~dest best
            ( path,
              { Gao_rexford.pref;
                cls;
                len = 1;
                next_hop = n;
                via_sibling = role = Relationship.Sibling } ))

(* Export decision for one selected path toward one neighbor: split
   horizon, then the compiled export policy (which defaults to the
   Gao–Rexford export rule). Claimed originations have no topological
   class — they export as Origin, which is what a real hijacker's
   announcement looks like. *)
let export_decision t ~neighbor ~role p =
  if Path.contains p neighbor then None
  else
    let dest = Path.destination p in
    let cls =
      match Path_class.class_of t.topo p with
      | Some cls -> Some cls
      | None ->
        if Policy.claims_origin t.policy ~node:t.node_id ~dest then
          Some Gao_rexford.Origin
        else None
    in
    match cls with
    | None -> None
    | Some cls ->
      if
        Policy.export_ok t.policy ~node:t.node_id ~peer:neighbor ~role ~dest
          ~cls ~len:(Path.length p) ~path:p
      then Some p
      else None

(* Re-select one destination; on change, update the local builder and
   every export builder (split horizon + compiled export policy). *)
let reselect t ~dest =
  if dest = t.node_id then ()
  else begin
    let old_path = Hashtbl.find_opt t.selected dest in
    let new_path =
      Option.map fst (best_candidate t ~dest)
    in
    let same =
      match (old_path, new_path) with
      | None, None -> true
      | Some a, Some b -> Path.equal a b
      | None, Some _ | Some _, None -> false
    in
    if not same then begin
      (match new_path with
      | Some p -> Hashtbl.replace t.selected dest p
      | None -> Hashtbl.remove t.selected dest);
      (match t.on_change with Some f -> f dest | None -> ());
      Builder.set_path t.local ~dest new_path;
      Topology.iter_neighbors t.topo t.node_id (fun n role _ ->
          match Imap.find_opt n t.exports with
          | None -> ()
          | Some builder ->
            let exported =
              match new_path with
              | Some p -> export_decision t ~neighbor:n ~role p
              | None -> None
            in
            Builder.set_path builder ~dest exported)
    end
  end

let flush t =
  Imap.fold
    (fun n builder acc ->
      let delta = Builder.flush_delta builder in
      if Pgraph.delta_is_empty delta then acc
      else (n, Announce.make ~sender:t.node_id delta) :: acc)
    t.exports []
  |> List.rev

(* Absorb one announcement: apply the delta to the sender's P-graph,
   re-derive the destinations it can affect and mark those whose derived
   path changed for re-selection. Emits nothing — [recompute] drains the
   marks. *)
let absorb t ann =
  (match Imap.find_opt ann.Announce.sender t.sessions with
  | None ->
    (* Session no longer exists (link went down while the message was in
       flight, or raced the adjacency notification): drop silently. *)
    ()
  | Some s ->
    let ann = Announce.import ann ~receiver:t.node_id in
    let delta = ann.Announce.delta in
    let affected = affected_dests s delta in
    Pgraph.apply s.pg delta;
    Hashtbl.iter
      (fun dest () -> if rederive s ~dest then Dirty.mark t.dirty dest)
      affected);
  t

let recompute t =
  Dirty.drain t.dirty (fun dest -> reselect t ~dest);
  (t, flush t)

let handle t ann =
  let t = absorb t ann in
  recompute t

(* Full export of the current table to a fresh session. *)
let populate_export t builder ~neighbor ~role =
  Builder.force_dest builder t.node_id;
  Hashtbl.iter
    (fun dest p ->
      match export_decision t ~neighbor ~role p with
      | Some p -> Builder.set_path builder ~dest (Some p)
      | None -> ())
    t.selected

(* Absorb a local adjacency change: reconcile sessions with the live
   neighbor set and mark the affected destinations dirty. Like [absorb],
   emits nothing until [recompute]. *)
let absorb_adjacency t =
  let live_set =
    Topology.fold_neighbors t.topo t.node_id ~init:Imap.empty
      ~f:(fun acc n _ _ -> Imap.add n () acc)
  in
  (* Dead sessions: drop state; every destination currently routed
     through the vanished neighbor needs re-selection, as does the
     neighbor's own prefix. *)
  Imap.iter
    (fun n _s ->
      if not (Imap.mem n live_set) then begin
        Dirty.mark t.dirty n;
        Hashtbl.iter
          (fun dest p ->
            match Path.next_hop p with
            | Some hop when hop = n -> Dirty.mark t.dirty dest
            | Some _ | None -> ())
          t.selected
      end)
    t.sessions;
  t.sessions <- Imap.filter (fun n _ -> Imap.mem n live_set) t.sessions;
  t.exports <- Imap.filter (fun n _ -> Imap.mem n live_set) t.exports;
  (* New sessions: empty announced graph, full export. *)
  Topology.iter_neighbors t.topo t.node_id (fun n role _ ->
      if not (Imap.mem n t.sessions) then begin
        t.sessions <- Imap.add n (new_session ~neighbor:n) t.sessions;
        let builder = Builder.create ~root:t.node_id in
        populate_export t builder ~neighbor:n ~role;
        t.exports <- Imap.add n builder t.exports;
        Dirty.mark t.dirty n
      end);
  (* Claimed originations need an initial selection pass. *)
  List.iter
    (fun d -> Dirty.mark t.dirty d)
    (Policy.origins t.policy ~node:t.node_id);
  t

let on_adjacency_change t =
  let t = absorb_adjacency t in
  recompute t

let start t = on_adjacency_change t

(* The policy-override poke: re-run selection and export decisions for
   everything this node knows about, because the compiled policy's
   answers may have changed out from under the cached state. With
   [resend] the export builders also re-announce their full wire state —
   receivers may hold announcements damaged by a (just-ended or
   just-started) Permission-List corruption override. *)
let refresh_policy ?(resend = false) t =
  Imap.iter
    (fun _ s ->
      Hashtbl.iter (fun d _ -> Dirty.mark t.dirty d) s.cache;
      Hashtbl.iter (fun d () -> Dirty.mark t.dirty d) s.pending)
    t.sessions;
  Hashtbl.iter (fun d _ -> Dirty.mark t.dirty d) t.selected;
  List.iter
    (fun d -> Dirty.mark t.dirty d)
    (Policy.origins t.policy ~node:t.node_id);
  (* Selections that stay put still need their export decisions redone:
     an export chain may have flipped while the best route didn't. *)
  Topology.iter_neighbors t.topo t.node_id (fun n role _ ->
      match Imap.find_opt n t.exports with
      | None -> ()
      | Some builder ->
        Hashtbl.iter
          (fun dest p ->
            Builder.set_path builder ~dest (export_decision t ~neighbor:n ~role p))
          t.selected;
        if resend then Builder.invalidate_wire builder);
  recompute t

let dirty_size t = Dirty.cardinal t.dirty

let selected_path t ~dest = Hashtbl.find_opt t.selected dest

let selected_paths t =
  Hashtbl.fold (fun d p acc -> (d, p) :: acc) t.selected []
  |> List.sort (fun (d1, _) (d2, _) -> compare d1 d2)

let next_hop t ~dest =
  match selected_path t ~dest with
  | Some (_ :: hop :: _) -> Some hop
  | Some _ | None -> None

let local_pgraph t = Builder.snapshot t.local

let neighbor_pgraph t ~neighbor =
  Option.map (fun s -> s.pg) (Imap.find_opt neighbor t.sessions)
