(** The Centaur protocol state machine (paper §4.3).

    One value of this type is the complete routing state of one AS: the
    P-graph received from each neighbor ([G_{B→A}]) with a cache of the
    paths derivable from it, the locally selected path set, and an
    incremental {!Builder} per neighbor holding the last exported view.
    Transitions return the announcements to emit, so the machine can be
    driven by the discrete-event simulator, by the examples, or directly
    by tests.

    The node's own prefix is its selection for itself: the one-node path
    [[id]] at class Origin, set at {!create}. Each session's mark for it
    comes from the same export decision as every other selection (split
    horizon, then the export chain at class Origin, length 0), at session
    start and on every {!refresh_policy}.

    Processing is incremental, as §4.3's steady phase prescribes: an
    incoming delta re-derives exactly the destinations whose derivation
    it changes — found by re-running one DerivePath step
    ({!Pgraph.derive_step}) at each child of a link the delta touched,
    for the cached paths through it whose step the delta can change (all
    of them where the child's in-link set changed, only those whose
    Permission-List pair changed where it did not) — re-selects only
    those, and flushes only the resulting net changes to each neighbor.
    The derived cache stays equal to a fresh derivation from the session
    graphs, lost deltas included.

    The node consults the shared {!Topology.t} only for (a) its own
    adjacency and link state and (b) the static business relationship of
    remote links appearing in paths it has learned — never for remote
    link liveness, which it can only discover through announcements. *)

type t

type output = (int * Announce.t) list
(** [(neighbor, announcement)] pairs to deliver. *)

val create :
  ?on_change:(int -> unit) -> ?policy:Policy.compiled -> Topology.t -> id:int -> t
(** A node with empty routing state but for its selection for itself,
    [[id]]. [on_change] is called with the destination id every time the
    node's selected path for that destination changes — the tap the
    simulator uses to feed the uniform changed-destination interface (it
    never fires for the node's own id). [policy] (default: the compiled
    Gao–Rexford default) drives import preference, export filtering and
    claimed originations; received announcements are additionally always
    verified against the baseline Gao–Rexford contract, with failures
    counted on {!Policy.rejects}. *)

val id : t -> int

val start : t -> t * output
(** Initialization (§4.3.1 Steps 1–4): discover adjacent links, select
    direct routes, build each session's exported view and emit the
    first downstream-link announcements. {!absorb_adjacency} followed
    by {!recompute}. *)

val absorb : t -> Announce.t -> t
(** Receive one announcement (§4.3.1 Step 2 / §4.3.2 Step 5) without
    re-selecting or emitting: apply the import filter (links into the
    receiver, self-loop links, and any link or destination mark naming
    a node outside the topology, are dropped in one pass), merge the
    delta into the sender's P-graph, and mark the destinations whose
    derived path changed on the node's dirty set. The simulator absorbs
    every announcement of a same-timestamp burst, then runs one
    {!recompute}. *)

val recompute : t -> t * output
(** Drain the dirty set (deterministic ascending-destination order),
    re-select each marked destination and flush the per-neighbor deltas
    that follow. Idempotent when nothing is marked. *)

val absorb_adjacency : t -> t
(** React to a local link having gone down or come up, without
    re-selecting or emitting: sessions over down links are dropped
    (their P-graphs discarded), new sessions start from an empty
    exported view (so the first delta is a full announcement), and the
    affected destinations are marked dirty for {!recompute}. *)

val refresh_policy : ?resend:bool -> t -> t * output
(** React to the node's compiled policy having been mutated in place
    (scenario overrides: leak / hijack / Permission-List corruption):
    re-select every known destination, re-run every export decision
    (the node's own mark included), and emit the resulting deltas. With [resend:true] the export builders
    also re-announce their current wire state verbatim
    ({!Builder.invalidate_wire}) — required when recovering receivers
    from corrupted announcements. *)

val dirty_size : t -> int
(** Destinations currently marked for re-selection — the dirty-set size
    a {!recompute} would drain. Observability taps read it just before
    recomputing to size the span. *)

val selected_path : t -> dest:int -> Path.t option
(** Currently selected path (starting at the node itself). At the
    node's own id it is [Some [id]], as BGP's Loc-RIB answers. *)

val next_hop : t -> dest:int -> int option

val neighbor_pgraph : t -> neighbor:int -> Pgraph.t option
(** The P-graph assembled from a neighbor's announcements, if a session
    exists. *)
