(** Centaur on the simulator.

    Wires the pure protocol machine of {!Centaur.Node} into the
    discrete-event engine. Messages are {!Centaur.Announce} deltas and
    are priced in link-level update units ({!Centaur.Announce.units}),
    matching how the paper counts Centaur's overhead against BGP's
    per-prefix updates — and in wire bytes
    ({!Centaur.Announce.wire_bytes}), with every Permission List carried
    as its real Bloom-compressed encoding. *)

val network :
  ?trace:Obs.Trace.t -> ?policy:Policy.compiled -> Topology.t -> Sim.Runner.t
(** The runner's [path] accessor reports each node's selected
    policy-compliant path from its local P-graph state.

    [policy] is shared by every node ({!Centaur.Node.create}); the
    default compiled policy is plain Gao–Rexford, byte-identically.
    Every node keeps verifying {e received} announcements against the
    baseline Gao–Rexford contract regardless of the sender's configured
    chains — leaked and hijacked routes are rejected at the first honest
    hop ({!Policy.note_reject} counts them). The runner's
    [on_policy_change] re-runs each poked node's selection and export
    decisions; a node whose {!Policy.set_corrupt} override flipped
    additionally re-announces its full wire state, so Permission-List
    damage reaches — and, once the override clears, is repaired at —
    every receiver.

    The on-wire Permission List Bloom filters are priced at a 1%
    false-positive rate ({!Centaur.Announce.wire_bytes}'s default),
    which scales the byte accounting (engine [bytes] counter), not the
    routing outcome.

    [trace] (default disabled) receives the engine events plus a bulk
    [Mark_dirty] whenever an absorb grows the node's dirty set, a
    [Rib_change] per selected-path move, and a [Recompute] span per
    batch-end re-selection (dirty-set size and paths moved). *)
