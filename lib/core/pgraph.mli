(** P-graphs (policy graphs) — paper §3.2.2, §4.2.

    A P-graph is a directed graph of {e downstream links} rooted at its
    creator: every link points from upstream to downstream, destination
    nodes are explicitly marked, and links into multi-homed nodes carry
    {!Permission_list}s. A node stores one P-graph per neighbor (built
    from that neighbor's downstream-link announcements) plus its own
    local P-graph built from its selected path set. A link without a
    Permission List carries {!Permission_list.empty}, which permits
    nothing, so the two are one link state.

    Two invariants make the structure work (paper §4.2): a P-graph built
    from a single-path selection admits {e exactly one} derivable
    policy-compliant path per marked destination, and that path is the
    creator's selected path — so an upstream node can reconstruct its
    neighbor's routes (Observation 1) and perform loop detection.

    The structure is mutable — the simulator applies thousands of deltas
    per run ({!apply} is in-place and proportional to the delta, not the
    graph). Each link carries a counter. In a [Builder]'s current view
    it is the §4.3 use count, the number of selected paths through the
    link, kept by {!add_use} and {!drop_use}: a link enters at its first
    use and leaves at zero. Counters are local bookkeeping: they do not
    travel in deltas and do not affect {!equal} or {!diff}. *)

type t

type link_data = {
  counter : int;  (** number of selected paths using the link *)
  plist : Permission_list.t;  (** {!Permission_list.empty} when none *)
}

val create : nodes:int -> root:int -> t
(** A fresh graph with no links and no destination marks, for node ids
    in [\[0, nodes)] (the root's included; any other id raises
    [Invalid_argument], as does a bound outside [\[1, max_node + 1\]]).
    Its per-node state lives in node-indexed arrays of that length: a
    graph's ids are a topology's nodes. {!equal} and {!diff} accept
    graphs of different bounds. *)

val pack : parent:int -> child:int -> int
(** The packed link key [parent lsl 31 lor child], one immediate int
    per link (node ids must lie in [0, max_node]). Ascending packed keys
    are ascending (parent, child) pairs. *)

val key_parent : int -> int

val key_child : int -> int

val max_node : int
(** Largest node id a packed key holds. *)

val root : t -> int

val of_paths : root:int -> Path.t list -> t
(** [BuildGraph] (paper Table 2). Every path must start at [root], be
    loop-free, and have length ≥ 1; at most one path per destination.
    Raises [Invalid_argument] otherwise, and on an id outside
    [\[0, max_node\]]. The graph's node bound is one past the largest
    id on the paths (the root's included), so ids should be a
    topology's. Links into nodes that end up multi-homed receive
    Permission Lists covering {e all} their traversing paths, so late
    multi-homing retroactively protects links added earlier. *)

val copy : t -> t
(** Independent deep copy. *)

val of_multipaths : root:int -> Path.t list -> t
(** Multi-path [BuildGraph] (the paper's §7 extension): like
    {!of_paths} but several paths may share a destination (exact
    duplicates are collapsed). Permission Lists then carry one entry per
    (destination, next hop) pair in use, and {!derive_paths} recovers
    the announced set. *)

(** BuildGraph's two passes, without the graph. The first pass records,
    for every link, the (destination, next hop) pair of each path
    through it; the second reads each link's traversal count (its use
    counter) and, for links into multi-homed children, its Permission
    List. {!of_paths} and {!of_multipaths} build their graphs from it,
    and [Static] reads the Table 4/5 statistics of whole-topology route
    sets off it. *)
module Traversals : sig
  type t

  val create : hint:int -> t
  (** An empty record sized for about [hint] distinct links. *)

  val add : t -> parent:int -> child:int -> dest:int -> next:int -> unit
  (** Record that the path to [dest] crosses [parent -> child] and
      continues to [next] ([-1] when [child] is [dest]). Ids must lie in
      [0, max_node]; unchecked. Allocates nothing unless the record
      grows. *)

  val add_path : t -> Path.t -> unit
  (** {!add} every link of a root-first path. Raises [Invalid_argument]
      on an id outside [0, max_node]. *)

  val merge : into:t -> t -> unit
  (** Add every traversal of the second record to [into]. *)

  val iter :
    t ->
    Permission_list.scratch ->
    (key:int -> count:int -> Permission_list.scratch option -> unit) ->
    unit
  (** The second pass: for every distinct link, in unspecified order,
      [f ~key ~count pl] with the packed link [key], its number of
      traversals, and [Some scratch] holding the link's Permission List
      when the child is multi-homed ([None] otherwise). The scratch is
      refilled for each such link. Allocates nothing per link. *)
end

val derive_paths : ?limit:int -> t -> dest:int -> Path.t list
(** All root→destination paths derivable under the Permission-List
    restrictions, most results first sorted lexicographically; at most
    [limit] (default 64, guarding against pathological graphs). On a
    single-path graph this returns the {!derive_path} singleton. The
    per-dest-next encoding may over-approximate a multi-path set by
    recombining prefixes of paths that share a (destination, next hop)
    pair at a multi-homed node — {!derive_paths} returns that closure;
    the test suite measures the excess (see EXPERIMENTS.md). *)

val derive_path : t -> dest:int -> Path.t option
(** [DerivePath] (paper Table 1): backtrack from the destination to the
    root following parent links, consulting Permission Lists at
    multi-homed nodes. Returns the root→destination path, [None] when the
    destination is not derivable. [derive_path t ~dest:(root t)] is
    [Some [root t]]. *)

val derive_walk : t -> dest:int -> (int -> unit) -> bool
(** The walk {!derive_path} runs, without building the path: calls the
    visitor on each node from the destination back to the root and
    returns [true] iff the walk reached the root (the visited nodes are
    then the derived path, reversed). Lets a caller compare a derivation
    with a cached path before allocating it. *)

val derive_step : t -> dest:int -> node:int -> next:int -> int
(** One step of {!derive_walk}: the node the walk toward [dest] moves to
    from [node], given [node]'s next hop [next] on the path ([-1] when
    [node] is [dest]); [-1] when no in-link qualifies. The answer
    depends only on [node]'s in-links and their Permission Lists, so a
    derivation can change only where a step on its path does — what
    lets a receiver re-check one hop per changed link instead of
    re-deriving. Allocates nothing. *)

val path_step : Path.t -> node:int -> int
(** The {!derive_step} a derivation of path [p] (root first) takes at
    [node], packed in one int: the parent it moves to is the node before
    [node] on [p] ({!step_parent}), and the next hop it arrived from is
    the node after, [-1] at the destination ({!step_next}). For a path
    into a multi-homed node this is also the path's Permission-List
    pair on the link it enters by. Raises [Invalid_argument] unless
    [node] is on [p] after its first node. Allocates nothing. *)

val step_parent : int -> int

val step_next : int -> int

val derive_all : t -> (int * Path.t) list
(** Derived path for every marked destination (destinations ascending;
    destinations that fail to derive are omitted). *)

val dests : t -> int list
(** Marked destinations, ascending. *)

val is_dest : t -> int -> bool

val mark_dest : t -> int -> unit

val unmark_dest : t -> int -> unit

val add_link : t -> parent:int -> child:int -> data:link_data -> unit
(** Insert or overwrite a directed link. *)

val remove_link : t -> parent:int -> child:int -> unit

val add_use : t -> parent:int -> child:int -> int
(** Count one more selected path through [parent -> child] and return
    the new counter. An absent link enters with counter 1 and no
    Permission List. Raises [Invalid_argument] on a self-loop or an id
    outside the graph's bound. Allocates nothing unless the arena
    grows. *)

val drop_use : t -> parent:int -> child:int -> int
(** Count one selected path fewer through [parent -> child] and return
    the new counter; at 0 the link leaves the graph. Raises
    [Invalid_argument] when the link is absent or its counter is
    already 0. *)

val set_plist : t -> parent:int -> child:int -> Permission_list.t -> unit
(** Replace a link's Permission List ({!Permission_list.empty} for
    none), keeping its counter. Raises [Invalid_argument] when the link
    is absent. *)

val link_data : t -> parent:int -> child:int -> link_data option

val mem_link : t -> parent:int -> child:int -> bool

val plist : t -> parent:int -> child:int -> Permission_list.t
(** The link's Permission List; {!Permission_list.empty} when it
    carries none or is absent. Allocates nothing. *)

val in_degree : t -> int -> int

val iter_parents : t -> int -> (int -> unit) -> unit
(** [iter_parents t node f] calls [f parent] once per in-link of
    [node], in unspecified order; [f] must not change the graph.
    Allocates nothing. *)

val parents_of : t -> int -> (int * link_data) list
(** Ascending parent id. *)

val links : t -> (int * int * link_data) list
(** All [(parent, child, data)], sorted by (parent, child). *)

val num_links : t -> int

val num_permission_lists : t -> int
(** Links carrying a non-empty Permission List — the Table 4
    quantity. *)

val permission_lists : t -> Permission_list.t list
(** The non-empty Permission Lists, in unspecified order. *)

val nodes : t -> int list
(** Every node appearing as endpoint of a link, plus the root. *)

val equal : t -> t -> bool
(** Structural equality on links (ignoring counters), Permission Lists
    and destination marks. A bare link and one carrying an empty list
    are the same link. *)

type delta = {
  add_links : (int * int * Permission_list.t) list;
      (** links to insert or whose Permission List changed, each with
          its list ({!Permission_list.empty} for none) *)
  remove_links : (int * int) list;
  add_dests : int list;
  remove_dests : int list;
}
(** The incremental update of §4.3's steady phase: per-{e link} changes
    plus destination-mark changes. *)

val delta_is_empty : delta -> bool

val delta_units : delta -> int
(** Number of link-level changes — the unit in which Centaur's update
    overhead is counted. *)

val diff : old_:t -> new_:t -> delta
(** Changes needed to turn [old_] into [new_] (counters ignored). *)

val apply : t -> delta -> unit
(** Apply a delta in place (inserted links get counter 0; receivers do
    not track the sender's counters). *)

val pp : Format.formatter -> t -> unit
