(** Incremental P-graph maintenance — the §4.3 steady-phase bookkeeping.

    A [Builder.t] maintains one node's (local or per-neighbor-export)
    P-graph as its selected path set evolves, exactly as the paper
    prescribes: every link carries a counter of the selected paths that
    use it; a link leaves the graph when its counter reaches zero;
    Permission Lists appear on the in-links of a node the moment it
    becomes multi-homed and disappear when it stops being multi-homed.

    It keeps two {!Pgraph.t}s. The current view holds the links the
    installed paths use, each link's counter its use count
    ({!Pgraph.add_use}, {!Pgraph.drop_use}). The wire state is the
    receiver's copy: every link, Permission List and destination mark
    the flushes announced.

    {!flush_delta} returns the net wire-level change (the Δ of §4.3)
    since the previous flush, already coalesced — the exact payload of an
    incremental downstream-link announcement. A flush visits only the
    links and destinations touched since the last one, compares each
    with the wire state and writes what it announces into it; for each
    link into a multi-homed node it builds the Permission List from the
    paths through the link. Cost of [set_path] and [flush_delta] is
    proportional to the paths and links touched (plus, when a
    destination mark is queued, one scan of a byte per node), not to the
    graph's link count, which is what makes large simulations
    tractable. *)

type t

val create : root:int -> nodes:int -> t
(** An empty view rooted at [root], over node ids in [\[0, nodes)]: its
    per-destination and per-node state is sized to [nodes] up front.
    Raises [Invalid_argument] unless [root] lies in that range. *)

val root : t -> int

val path_of : t -> dest:int -> Path.t
(** The path currently installed for a destination, [[]] when none. *)

val dests : t -> int list

val set_path : t -> dest:int -> Path.t -> unit
(** Install, replace or remove ([[]]) the selected path for one
    destination, which is marked exactly while a path is installed.
    Paths must start at the root, end at the destination and be
    loop-free, and every node id, the destination's included, must lie
    in [\[0, nodes)] (raises [Invalid_argument] otherwise). The root's
    own mark is the one-node path [[root]]: it adds no link, and is how
    the exporter announces its own prefix. *)

val counter : t -> parent:int -> child:int -> int
(** Current use counter of a link; 0 if absent. *)

val invalidate_wire : t -> unit
(** Distrust the receiver's copy of the announced state: the next
    {!flush_delta} re-announces every current link (with its Permission
    List) and destination mark even where they equal what was last put
    on the wire, while withdrawals keep diffing as usual. Used to
    recover peers from damaged announcements (e.g. the misconfigured
    Permission-List fault): re-adding a link is idempotent at the
    receiver, so the resend is safe. *)

val flush_delta : t -> Pgraph.delta
(** Net changes since the last flush: link insertions (with their
    current Permission Lists, {!Permission_list.empty} on a link into a
    single-homed child), link withdrawals, destination marks.
    Changes that cancelled out produce nothing. Applying every flushed
    delta, in order, to an empty graph yields {!Pgraph.of_paths} over
    the installed paths but [[root]], marked at every one of {!dests}. *)
