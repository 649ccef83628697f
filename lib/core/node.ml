let nil = -1

(* One session per live neighbor: the neighbor's announced P-graph, the
   paths derived from it (indexed by destination) with the route
   attributes selection reads off them, an inverted index so a link
   change maps to the destinations it can affect, and the export builder
   holding the view last announced to that neighbor. The index is one
   bit row per node: row x holds the cached destinations whose path
   visits x, the root (the neighbor) excepted. The DerivePath step a
   cached path takes at x is read back off the path itself
   ([Pgraph.path_step]). Paths are ids in the runner's [Path_store],
   each held by the cache entry or selection that names it. *)
type session = {
  pg : Pgraph.t;
  export : Builder.t;
  c_path : int array; (* dest -> id of the derived path, or [nil] *)
  c_attr : int array; (* dest -> the cached path's attributes, packed *)
  usage : Bit_rows.t; (* node -> cached destinations whose path visits it *)
  (* Marked destinations that failed to derive (transient inconsistency,
     e.g. a link the import filter dropped): retried on every delta. *)
  pending : Flat_tbl.t;
}

type t = {
  node_id : int;
  topo : Topology.t;
  nodes : int; (* [Topology.num_nodes]: every id a session holds is below it *)
  adj : Topology.adj;
  off : int; (* this node's slice of the CSR half-edges *)
  hi : int;
  (* Sessions indexed by half-edge ([k - off]), i.e. by ascending
     neighbor id. *)
  sessions : session option array;
  store : Path_store.t;
  selected : int array; (* dest -> id of my path ([nil] = none; [[id]] at [id]) *)
  (* dest -> the rank of the class my path was selected with, which is
     the class it is exported at (0 with no path) *)
  selected_rank : Bytes.t;
  (* Destinations whose selection must be revisited: every absorbed
     delta and adjacency change marks here (across all sessions), and
     one [recompute] drains it — the cross-session invalidation shares
     the dirty-set scheduler with the other protocols. *)
  dirty : Dirty.t;
  (* Scratch: the destinations one delta can affect, what one delta does
     to each child of its links (node -> [epoch] and flag bits, see
     [child_flags]), the Permission Lists its re-announced links had
     before it, and the nodes of the derivation being compared with the
     cache (destination first). *)
  affected : Dirty.t;
  child : int array;
  mutable epoch : int;
  mutable old_plists : Permission_list.t array;
  mutable walk : int array;
  mutable walk_len : int;
  mutable steps : int array; (* [scan_child]: (destination, step) pairs *)
  mutable visit : int -> unit;
  on_change : (int -> unit) option; (* selection-change tap *)
  policy : Policy.compiled;
  (* Scratch: one re-selection's running best. Centaur selects like
     BGP's decision process: the Standard discipline. *)
  best : Gao_rexford.best;
}

type output = (int * Announce.t) list

(* The new path is held before the old one is let go. *)
let set_selected t dest p cls =
  if p <> nil then Path_store.acquire t.store p;
  let old = t.selected.(dest) in
  if old <> nil then Path_store.release t.store old;
  t.selected.(dest) <- p;
  Bytes.set t.selected_rank dest (Char.chr (Gao_rexford.class_rank cls))

let create ?on_change ?policy ?store topo ~id =
  let n = Topology.num_nodes topo in
  let store =
    match store with Some s -> s | None -> Path_store.create ~nodes:(max n 1)
  in
  let adj = Topology.adj topo in
  let off = adj.Topology.adj_off.(id) and hi = adj.Topology.adj_off.(id + 1) in
  let t =
    { node_id = id;
      topo;
      nodes = n;
      adj;
      off;
      hi;
      sessions = Array.make (hi - off) None;
      store;
      selected = Array.make (max n 1) nil;
      selected_rank = Bytes.make (max n 1) '\000';
      dirty = Dirty.create ();
      affected = Dirty.create ();
      child = Array.make n 0;
      epoch = 0;
      old_plists = Array.make 8 Permission_list.empty;
      walk = Array.make 16 0;
      steps = Array.make 32 0;
      walk_len = 0;
      visit = ignore;
      on_change;
      policy = (match policy with Some p -> p | None -> Policy.default ());
      best = Gao_rexford.best Gao_rexford.Standard }
  in
  (* The node's selection for itself: its own prefix, class Origin,
     exported through [export_dest] like any other selection. Set
     directly, so no [on_change] fires; [reselect] never revisits it. *)
  set_selected t id (Path_store.single store id) Gao_rexford.Origin;
  t.visit <-
    (fun v ->
      if t.walk_len = Array.length t.walk then begin
        let w = Array.make (2 * t.walk_len) 0 in
        Array.blit t.walk 0 w 0 t.walk_len;
        t.walk <- w
      end;
      t.walk.(t.walk_len) <- v;
      t.walk_len <- t.walk_len + 1);
  t

let id t = t.node_id

let selected t dest =
  if dest < Array.length t.selected then Path_store.path t.store t.selected.(dest)
  else []

let selected_class t dest =
  Gao_rexford.class_of_rank (Char.code (Bytes.get t.selected_rank dest))

let mark_dirty t dest = Dirty.mark t.dirty dest

let new_session t ~neighbor =
  { pg = Pgraph.create ~nodes:t.nodes ~root:neighbor;
    export = Builder.create ~root:t.node_id ~nodes:t.nodes;
    c_path = Array.make t.nodes nil;
    c_attr = Array.make t.nodes 0;
    usage = Bit_rows.create t.nodes;
    pending = Flat_tbl.create () }

let session_of t neighbor =
  let k = Topology.half_edge t.topo t.node_id neighbor in
  if k < 0 then None else t.sessions.(k - t.off)

(* --- derived-path cache maintenance --- *)

let cached s dest = if dest < Array.length s.c_path then s.c_path.(dest) else nil

let cached_path t s dest = Path_store.path t.store s.c_path.(dest)

let rec unmark usage dest = function
  | [] -> ()
  | x :: rest ->
    Bit_rows.remove usage x dest;
    unmark usage dest rest

(* The old path is read before its id is released. *)
let uncache t s dest =
  let id = s.c_path.(dest) in
  if id <> nil then begin
    (match Path_store.path t.store id with
    | [] -> ()
    | _root :: rest -> unmark s.usage dest rest);
    Path_store.release t.store id;
    s.c_path.(dest) <- nil
  end

(* The id of the derivation in [t.walk], interned destination first. *)
let intern_walk t =
  let id = ref (Path_store.single t.store t.walk.(0)) in
  for i = 1 to t.walk_len - 1 do
    id := Path_store.extend t.store t.walk.(i) !id
  done;
  !id

(* What selection reads off a cached path, packed in one int: whether
   it visits this node (bit 0), whether every pair of nodes it crosses
   shares a link (bit 1), the neighbor's route class if so (bits 2-3,
   [Gao_rexford.class_rank]), and its hop count (the bits above). *)
let attr_loop = 1
let attr_classed = 2
let attr_len a = a lsr 4
let attr_class a = Gao_rexford.class_of_rank ((a lsr 2) land 3)

let class_bits = function
  | None -> 0
  | Some cls -> attr_classed lor (Gao_rexford.class_rank cls lsl 2)

(* Cache the derivation in [t.walk], interned as [id], as [dest]'s path,
   setting [dest] in the row of every node on it but the root, and
   record its attributes. *)
let cache t s dest id =
  Path_store.acquire t.store id;
  s.c_path.(dest) <- id;
  let p = Path_store.path t.store id in
  for i = 0 to t.walk_len - 2 do
    Bit_rows.add s.usage t.walk.(i) dest
  done;
  s.c_attr.(dest) <-
    ((t.walk_len - 1) lsl 4)
    lor class_bits (Path_class.class_of t.topo p)
    lor if Path.contains p t.node_id then attr_loop else 0

(* Re-derive one destination from the session's graph; true iff the
   cached path changed. The derivation is walked into scratch and
   interned, so a path the store holds already allocates nothing. *)
let rederive t s ~dest =
  let is_dest = Pgraph.is_dest s.pg dest in
  t.walk_len <- 0;
  let derived = is_dest && Pgraph.derive_walk s.pg ~dest t.visit in
  if is_dest && not derived then Flat_tbl.set s.pending dest 1
  else if Flat_tbl.length s.pending > 0 then Flat_tbl.remove s.pending dest;
  let id = if derived then intern_walk t else nil in
  id <> cached s dest
  && begin
    uncache t s dest;
    if derived then cache t s dest id;
    true
  end

(* One-hop invalidation. A delta changes the in-links of the children
   of its links and nothing else, and a derivation reads only the
   in-links of the nodes it steps from, so a cached path can first
   diverge only at such a child; a destination whose step there now
   answers differently goes into [t.affected]. How much of the child's
   row that takes depends on what the delta did to the child's in-link
   set, recorded before it is applied:

   - changed, and the child is left with no in-link or with one it did
     not have: every cached path through it stepped by an old link, so
     every one changes — the row is marked without reading a path;
   - changed otherwise: the step of every cached path through the child
     is re-run ([scan_child]);
   - unchanged, the child single-homed: its lone parent is every path's
     step, whatever the Permission Lists say — nothing changes;
   - unchanged, the child multi-homed: only a (destination, next hop)
     pair whose [Permit] answer changed on a re-announced link, one in
     the symmetric difference of its old and new list, can step
     differently; those paths' steps are re-run ([recheck]).

   Each case marks exactly the destinations re-running every step
   would. *)

(* Per-child flags of the delta being absorbed, valid while
   [t.child.(c) lsr 3 = t.epoch]. *)
let checked_bit = 1 (* the child's row was handled *)
let changed_bit = 2 (* its in-link set changed *)
let gained_bit = 4 (* it gained an in-link it did not have *)

let child_flags t c =
  let v = t.child.(c) in
  if v lsr 3 = t.epoch then v land 7 else 0

let set_child_flag t c bit = t.child.(c) <- (t.epoch lsl 3) lor child_flags t c lor bit

let scan_child t s c =
  (* Read every cached path's step first, then re-run the steps: the
     path reads are independent loads, and they overlap only when no
     other work runs between them. *)
  let n = ref 0 in
  let d = ref (Bit_rows.next s.usage c 0) in
  while !d >= 0 do
    if 2 * !n = Array.length t.steps then begin
      let a = Array.make (4 * !n) 0 in
      Array.blit t.steps 0 a 0 (2 * !n);
      t.steps <- a
    end;
    t.steps.(2 * !n) <- !d;
    t.steps.((2 * !n) + 1) <- Pgraph.path_step (cached_path t s !d) ~node:c;
    incr n;
    d := Bit_rows.next s.usage c (!d + 1)
  done;
  (* A child with at most one in-link steps to the same parent whatever
     the destination, so that step runs once. *)
  let single_homed = Pgraph.in_degree s.pg c <= 1 in
  let single_parent =
    if single_homed then Pgraph.derive_step s.pg ~dest:nil ~node:c ~next:nil
    else nil
  in
  for i = 0 to !n - 1 do
    let dest = t.steps.(2 * i) and h = t.steps.((2 * i) + 1) in
    let parent =
      if single_homed then single_parent
      else Pgraph.derive_step s.pg ~dest ~node:c ~next:(Pgraph.step_next h)
    in
    if parent <> Pgraph.step_parent h then Dirty.mark t.affected dest
  done

let mark_row t s c =
  let d = ref (Bit_rows.next s.usage c 0) in
  while !d >= 0 do
    Dirty.mark t.affected !d;
    d := Bit_rows.next s.usage c (!d + 1)
  done

(* A child whose in-link set changed, once per delta. *)
let check_changed t s c =
  let flags = child_flags t c in
  if flags land checked_bit = 0 then begin
    set_child_flag t c checked_bit;
    let deg = Pgraph.in_degree s.pg c in
    if deg = 0 || (deg = 1 && flags land gained_bit <> 0) then mark_row t s c
    else scan_child t s c
  end

(* The cached path to [dest] through [c], if its step there arrives
   from [next], re-runs that step. *)
let recheck t s c ~dest ~next =
  if dest < t.nodes && Bit_rows.mem s.usage c dest then begin
    let h = Pgraph.path_step (cached_path t s dest) ~node:c in
    if
      Pgraph.step_next h = next
      && Pgraph.derive_step s.pg ~dest ~node:c ~next <> Pgraph.step_parent h
    then Dirty.mark t.affected dest
  end

(* Before the delta: which children's in-link sets it changes, and the
   list each re-announced link had ([t.old_plists], by position in
   [add_links]). *)
let rec note_removed t s = function
  | [] -> ()
  | (parent, c) :: rest ->
    if Pgraph.mem_link s.pg ~parent ~child:c then set_child_flag t c changed_bit;
    note_removed t s rest

let rec note_added t s i = function
  | [] -> ()
  | (parent, c, _) :: rest ->
    if i = Array.length t.old_plists then begin
      let a = Array.make (2 * i) Permission_list.empty in
      Array.blit t.old_plists 0 a 0 i;
      t.old_plists <- a
    end;
    if Pgraph.mem_link s.pg ~parent ~child:c then
      t.old_plists.(i) <- Pgraph.plist s.pg ~parent ~child:c
    else set_child_flag t c (changed_bit lor gained_bit);
    note_added t s (i + 1) rest

(* After it: one check per child, by the cases above. *)
let rec check_removed t s = function
  | [] -> ()
  | (_, c) :: rest ->
    if child_flags t c land changed_bit <> 0 then check_changed t s c;
    check_removed t s rest

let rec check_added t s i = function
  | [] -> ()
  | (_, c, pl) :: rest ->
    if child_flags t c land changed_bit <> 0 then check_changed t s c
    else if Pgraph.in_degree s.pg c > 1 then
      Permission_list.iter_diff t.old_plists.(i) pl (recheck t s c);
    t.old_plists.(i) <- Permission_list.empty;
    check_added t s (i + 1) rest

(* --- selection --- *)

(* Offer [t.best] the neighbor's path [down] to [dest], cached in
   session [s], with the attributes recorded when it was cached; true
   when it takes the lead. *)
let offer_path t ~neighbor ~role s ~dest down =
  let a = s.c_attr.(dest) in
  a land attr_loop = 0
  &&
  (* The verification check (was the neighbor allowed to offer this
     under the baseline contract?) and our own class both derive from
     the route's class at the neighbor. The contract check is always
     Gao–Rexford, never the offering node's configured policy — a
     leaker's permissive export chain doesn't make its announcements
     acceptable here, which is exactly how Centaur contains leaked and
     hijacked routes. *)
  let neighbor_class = attr_class a in
  if
    a land attr_classed <> 0
    && Gao_rexford.exportable ~cls:neighbor_class
         ~to_role:(Relationship.invert role)
  then
    Policy.learn t.policy t.best ~node:t.node_id ~peer:neighbor ~role ~dest
      ~neighbor_class ~len:(attr_len a) ~tail:down
  else begin
    Policy.note_reject t.policy;
    false
  end

(* The id of the selected path toward [dest], [nil] when there is none;
   [t.best]'s leader class is then the class it was selected with. A
   claimed origination (static [originate] or an active hijack
   override) is offered first: class Origin, length 1. *)
let best_path t ~dest =
  let chooser = t.node_id in
  Gao_rexford.start t.best ~chooser ~dest;
  (* The leader's path beyond [chooser]: a cached id, or the one-node
     path [[one]] of a claim or a direct offer, interned once it
     wins. *)
  let lead = ref nil in
  let one =
    ref (if Policy.offer_claim t.policy t.best ~node:chooser ~dest then dest else nil)
  in
  let { Topology.adj_nbr; adj_rel; adj_link; adj_up; _ } = t.adj in
  for k = t.off to t.hi - 1 do
    if adj_up.(adj_link.(k)) then begin
      let n = adj_nbr.(k) and role = Topology.rel_of_code adj_rel.(k) in
      (match t.sessions.(k - t.off) with
      | None -> ()
      | Some s ->
        let c = cached s dest in
        if
          c <> nil
          && offer_path t ~neighbor:n ~role s ~dest (Path_store.path t.store c)
        then begin
          lead := c;
          one := nil
        end);
      (* The direct offer: a neighbor's own prefix, before its
         announcement arrives. [Policy.extend] asks the neighbor's
         export chain first, so the offer carries exactly what that
         announcement's mark will carry. Learning the prefix only from
         the announcement would triple cold start: in
         [exp all --quick --seed 42], fig8's cold-start messages go
         from 801 to 2,515 at its smallest size and Fig. 6's Centaur
         median from 13.01 to 13.96 ms. *)
      if
        dest = n
        && Policy.extend t.policy t.best ~node:chooser ~peer:n ~role ~dest
             ~neighbor_class:Gao_rexford.Origin ~len:0 ~tail:[ n ]
      then one := n
    end
  done;
  let lead = if !one <> nil then Path_store.single t.store !one else !lead in
  if lead = nil then nil else Path_store.extend t.store chooser lead

(* Run [f neighbor role session] over the live neighbors holding a
   session, ascending. *)
let iter_live_sessions t f =
  let { Topology.adj_nbr; adj_rel; adj_link; adj_up; _ } = t.adj in
  for k = t.off to t.hi - 1 do
    if adj_up.(adj_link.(k)) then
      match t.sessions.(k - t.off) with
      | None -> ()
      | Some s -> f adj_nbr.(k) (Topology.rel_of_code adj_rel.(k)) s
  done

(* The one export decision: [dest]'s selection toward session [s], whose
   neighbor has relationship [role] to this node. Split horizon, then
   the compiled export chain (by default the Gao–Rexford export rule)
   at the class the route was selected with — for the node's own
   prefix, class Origin and length 0. *)
let export_dest t ~neighbor ~role s ~dest =
  Builder.set_path s.export ~dest
    (match selected t dest with
    | [] -> []
    | p ->
      if
        (not (Path.contains p neighbor))
        && Policy.export_ok t.policy ~node:t.node_id ~peer:neighbor ~role
             ~dest ~cls:(selected_class t dest) ~len:(Path.length p) ~path:p
      then p
      else [])

(* Re-select one destination other than the node itself. A new path,
   or the same path at another class (a claim starting or ending beside
   a one-hop learned route), is stored and exported to every live
   session; only a new path is a route change. *)
let reselect t ~dest =
  if dest <> t.node_id then begin
    let p = best_path t ~dest in
    let cls = Gao_rexford.leader_class t.best in
    let moved = p <> t.selected.(dest) in
    if moved || cls <> selected_class t dest then begin
      set_selected t dest p cls;
      if moved then (match t.on_change with Some f -> f dest | None -> ());
      iter_live_sessions t (fun n role s ->
          export_dest t ~neighbor:n ~role s ~dest)
    end
  end

let flush t =
  let out = ref [] in
  for i = Array.length t.sessions - 1 downto 0 do
    match t.sessions.(i) with
    | None -> ()
    | Some s ->
      let delta = Builder.flush_delta s.export in
      if not (Pgraph.delta_is_empty delta) then
        out :=
          (t.adj.Topology.adj_nbr.(t.off + i), Announce.make ~sender:t.node_id delta)
          :: !out
  done;
  !out

(* One pass over a received delta drops what [t] must not apply. A
   delta that names a node outside [0, nodes), or a link from a node to
   itself, cannot describe this topology. A link into the receiver
   ([X -> t]) is §4.3 Step 2's import filter: it would close a loop
   through [t]. No peer on the topology sends the former, and split
   horizon at the sender makes the latter rare, so the common case
   checks and hands the delta through. *)
let known t v = v >= 0 && v < t.nodes
let link_known t (p, c, _) = p <> c && c <> t.node_id && known t p && known t c
let removal_known t (p, c) = c <> t.node_id && known t p && known t c

let rec all_known f t = function [] -> true | x :: rest -> f t x && all_known f t rest

let known_delta t d =
  let { Pgraph.add_links; remove_links; add_dests; remove_dests } = d in
  if
    all_known link_known t add_links
    && all_known removal_known t remove_links
    && all_known known t add_dests
    && all_known known t remove_dests
  then d
  else
    { Pgraph.add_links = List.filter (link_known t) add_links;
      remove_links = List.filter (removal_known t) remove_links;
      add_dests = List.filter (known t) add_dests;
      remove_dests = List.filter (known t) remove_dests }

(* Absorb one announcement: apply the delta to the sender's P-graph,
   re-derive the destinations whose derivation it changed and mark them
   for re-selection. Emits nothing — [recompute] drains the marks. *)
let absorb t ann =
  (match session_of t ann.Announce.sender with
  | None ->
    (* Session no longer exists (link went down while the message was in
       flight, or raced the adjacency notification): drop silently. *)
    ()
  | Some s ->
    let delta = known_delta t ann.Announce.delta in
    t.epoch <- t.epoch + 1;
    note_removed t s delta.Pgraph.remove_links;
    note_added t s 0 delta.Pgraph.add_links;
    Pgraph.apply s.pg delta;
    (* Changed destination marks and the destinations that failed to
       derive are re-derived outright; cached paths only where a step
       changed. *)
    Dirty.mark_list t.affected delta.Pgraph.add_dests;
    Dirty.mark_list t.affected delta.Pgraph.remove_dests;
    Flat_tbl.iter s.pending (fun d _ -> Dirty.mark t.affected d);
    check_added t s 0 delta.Pgraph.add_links;
    check_removed t s delta.Pgraph.remove_links;
    Dirty.drain t.affected (fun dest ->
        if rederive t s ~dest then mark_dirty t dest));
  t

let recompute t =
  Dirty.drain t.dirty (fun dest -> reselect t ~dest);
  (t, flush t)

let iter_selected t f =
  Array.iteri
    (fun dest id -> if id <> nil then f dest (Path_store.path t.store id))
    t.selected

(* Full export of the current table, the node's own prefix included,
   to a fresh session. *)
let populate_export t s ~neighbor ~role =
  iter_selected t (fun dest _ -> export_dest t ~neighbor ~role s ~dest)

(* Absorb a local adjacency change: reconcile sessions with the live
   neighbor set and mark the affected destinations dirty. Like [absorb],
   emits nothing until [recompute]. *)
let absorb_adjacency t =
  let { Topology.adj_nbr; adj_rel; adj_link; adj_up; _ } = t.adj in
  for k = t.off to t.hi - 1 do
    let n = adj_nbr.(k) and i = k - t.off in
    if not adj_up.(adj_link.(k)) then begin
      (* Dead session: drop state, releasing its cached paths; every
         destination currently routed through the vanished neighbor
         needs re-selection, as does the neighbor's own prefix. *)
      match t.sessions.(i) with
      | None -> ()
      | Some s ->
        Array.iter
          (fun id -> if id <> nil then Path_store.release t.store id)
          s.c_path;
        t.sessions.(i) <- None;
        mark_dirty t n;
        iter_selected t (fun dest p ->
            match p with
            | _ :: hop :: _ when hop = n -> mark_dirty t dest
            | _ -> ())
    end
    else if t.sessions.(i) = None then begin
      (* New session: empty announced graph, full export. *)
      let s = new_session t ~neighbor:n in
      populate_export t s ~neighbor:n
        ~role:(Topology.rel_of_code adj_rel.(k));
      t.sessions.(i) <- Some s;
      mark_dirty t n
    end
  done;
  (* Claimed originations need an initial selection pass. *)
  List.iter (mark_dirty t) (Policy.origins t.policy ~node:t.node_id);
  t

let start t = recompute (absorb_adjacency t)

(* The policy-override poke: re-run selection and export decisions for
   everything this node knows about, because the compiled policy's
   answers may have changed out from under the cached state. With
   [resend] the export builders also re-announce their full wire state —
   receivers may hold announcements damaged by a (just-ended or
   just-started) Permission-List corruption override. *)
let refresh_policy ?(resend = false) t =
  Array.iter
    (function
      | None -> ()
      | Some s ->
        Array.iteri (fun d id -> if id <> nil then mark_dirty t d) s.c_path;
        Flat_tbl.iter s.pending (fun d _ -> mark_dirty t d))
    t.sessions;
  iter_selected t (fun d _ -> mark_dirty t d);
  List.iter (mark_dirty t) (Policy.origins t.policy ~node:t.node_id);
  (* Selections that stay put still need their export decisions redone:
     an export chain may have flipped while the best route didn't. *)
  iter_live_sessions t (fun n role s ->
      iter_selected t (fun dest _ -> export_dest t ~neighbor:n ~role s ~dest);
      if resend then Builder.invalidate_wire s.export);
  recompute t

let dirty_size t = Dirty.cardinal t.dirty

let selected_path t ~dest =
  match selected t dest with [] -> None | p -> Some p

let next_hop t ~dest =
  match selected t dest with _ :: hop :: _ -> Some hop | _ -> None

let neighbor_pgraph t ~neighbor =
  match session_of t neighbor with Some s -> Some s.pg | None -> None
