(** Path-vector baseline — BGP with Gao–Rexford policies.

    The comparison protocol of the paper's evaluation. Each node
    originates its own prefix and exchanges {e path-level} announcements:
    one update message per (neighbor, prefix) change, which is exactly
    why a single link failure triggers a withdrawal per affected
    destination (Figure 5) and why failover explores stale alternate
    paths hop by hop (slow convergence, Figure 6).

    Import policy: loop detection (drop paths containing self) and
    Gao–Rexford ranking (customer > peer > provider, then length, then
    lowest next hop). Export policy: the selective-announcement rule,
    with split horizon toward any neighbor already on the path.

    Updates to a peer are batched by the standard MRAI
    (Minimum Route Advertisement Interval) timer — the mechanism that
    makes BGP's path exploration cost wall-clock time [Labovitz et al.].
    The first update to a quiet peer leaves immediately; subsequent ones
    within the interval are held and coalesced per prefix. The interval
    is jittered ±25% per session, as deployed implementations do. *)

type msg
(** One per-prefix update: the announced path starting at the sender
    ([[]] withdraws) and, under BGP-RCN, the failed link whose loss
    triggered it. *)

val network :
  ?mrai:float -> ?rcn:bool -> ?incremental:bool -> ?trace:Obs.Trace.t ->
  ?policy:Policy.compiled -> Topology.t -> Sim.Runner.t
(** Build a BGP network over the topology. [mrai] is the batching
    interval in milliseconds (default 30.0; 0 disables batching).

    [policy] routes every import ranking and export decision through the
    compiled policy chains; the default compiled policy evaluates to
    plain Gao–Rexford, byte-identically. Unlike Centaur, BGP never
    verifies a received path against the relationship contracts: an
    unverifiable path (a hijacked origination's fabricated tail) is
    classified by the session role alone and accepted — the credulity
    the containment experiments measure. The runner's [on_policy_change]
    re-runs each poked node's decision process over every known
    destination and re-diffs its full Adj-RIB-Out.

    [trace] (default disabled) receives the engine events plus the
    pipeline's own: a [Mark_dirty] per absorb-stage mark, a [Recompute]
    span per decision run (dirty-set size and routes moved), a
    [Rib_change] per Loc-RIB move and a [Rib_out] per Adj-RIB-Out delta
    — emitted at diff time, where the no-redundant-update invariant
    holds regardless of MRAI coalescing.

    The implementation runs the standard three-stage pipeline — Adj-RIB-In
    absorb, decision, Adj-RIB-Out export — over a per-node dirty set: each
    absorbed event marks only the destinations it can affect, one decision
    pass per same-timestamp burst re-selects exactly those, and only
    prefixes whose best route changed reach the export diff.
    [incremental:false] degrades the absorb stage to mark {e every} known
    destination per event, forcing a from-scratch decision pass — the
    baseline the [incremental-vs-full] bench kernel compares against.
    Both modes select identical routes.

    [rcn] enables BGP-RCN (Pei et al., root cause notification — the
    paper's reference [15]): failure-triggered updates carry the failed
    link, and receivers immediately purge every stale alternative whose
    path uses it, suppressing path exploration. The paper's §6.2 claims
    Centaur is informationally "a path vector protocol that includes
    root cause notification with compressed update format"; comparing
    the [rcn] baseline against Centaur tests exactly that claim.

    The runner's [path] accessor reports each node's selected
    (control-plane) path. *)
