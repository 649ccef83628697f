(** Path selection as an explicit routing algebra.

    A route crosses a link in two halves: the exporter's consent, at the
    class the exporter selected the route with, then {!Policy.learn},
    which relabels the class, adds the hop, runs the receiver's import
    chain and offers the result to a running {!Gao_rexford.best}. The
    protocol engines run the halves at the two ends of a message; the
    stable-state solver and this module run them as one step,
    {!Policy.extend}. This module reifies it as an algebra over concrete
    routes — a carrier of [(path, preference, class, length)]
    signatures, an {!extend} operation per link, and two order
    relations — so convergence arguments can be checked against the
    {e configuration} instead of observed on runs:

    - {!prefer} is the per-node selection order: a direct call of
      {!Gao_rexford.compare_routes}, the order the stable solver and
      every protocol engine run, so the analyzer certifies exactly the
      ranking that executes.
    - {!compare_rank} is a {e global} severity order λ shared by every
      node, chosen so that no node ever strictly prefers a strictly
      λ-worse route (preference first, then class rank, then — under
      the Standard discipline, whose tie-breaks respect it — length).

    If every permitted extension is strictly λ-worse than the route it
    extends ({!strict_monotonicity}), no dispute wheel can exist: around
    any would-be wheel each hub weakly improves λ from rim to spoke
    while each rim hop strictly degrades it, a contradiction — and by
    Griffin–Shepherd–Wilfong, no wheel means the protocol converges
    under every activation schedule. {!Dispute} combines this check
    with a structural Gao–Rexford certificate and a wheel search. *)

type route = {
  node : int;     (** resident node (head of [path]) *)
  path : Path.t;  (** [node :: ... :: origin] *)
  cand : Gao_rexford.candidate;
      (** what [node] ranks: the import preference it grants, class,
          hop count, the neighbor the route extends ([node] itself for
          the destination's own route, the destination for a claimed
          origination) and whether it came across a sibling link *)
}

type t
(** Analysis context: topology + discipline + compiled policy. *)

val create :
  ?discipline:Gao_rexford.discipline ->
  ?policy:Policy.compiled ->
  Topology.t ->
  t
(** Defaults: [Standard] discipline, the default (pure Gao–Rexford)
    policy. *)

val extend : t -> dest:int -> route -> via:int -> route option
(** Extend a route resident at [route.node] across the (up) link to
    neighbor [via]: [None] if the link is absent/down, the extension
    loops, the exporter's policy withholds the route, or the importer's
    policy denies it; otherwise the route {!Policy.extend} offers at
    [via]. *)

val prefer : t -> dest:int -> route -> route -> bool
(** [prefer t ~dest r1 r2]: does the resident node strictly prefer [r1]
    over [r2]? Both routes must live at the same node.
    [Gao_rexford.compare_routes] under the context's discipline, with
    [~chooser:r1.node ~dest], decides. *)

val compare_rank : t -> route -> route -> int
(** The global order λ: negative when the first route is strictly more
    preferred. Compares descending preference, then class rank, then
    (Standard discipline only) length: {!Gao_rexford.compare_routes}
    with the next hop and sibling flag erased. Per-node {!prefer}
    refines λ: a strict {!prefer} never contradicts a strict λ
    ordering. *)

type enumeration = {
  dest : int;
  routes : route list array;  (** permitted routes resident per node *)
  complete : bool;  (** false when the route cap truncated the walk *)
  total : int;
}

val enumerate : t -> dest:int -> enumeration
(** All permitted routes toward [dest]: the origin route [[dest]], plus
    each claimed origination in the form the engines select it
    ({!Policy.offer_claim}: the claimer's one-hop [[claimer; dest]],
    class [Origin]), closed under {!extend}.
    Paths are simple, so the walk terminates; a cap of 20,000 routes
    bounds the carrier on pathological configurations, clearing
    [complete]. Deterministic: routes appear in breadth-first discovery
    order. *)

type counterexample = {
  base : route;
  ext : route;  (** the offending extension of [base] *)
}

type check =
  | Holds
  | Fails of counterexample
  | Unknown of string  (** the enumeration was truncated before the
                           property could be decided *)

val strict_monotonicity : t -> enumeration -> check
(** Every permitted one-hop extension of every enumerated route is
    strictly λ-worse than the route it extends. [Holds] on a complete
    enumeration is a convergence certificate (see the module header);
    a [Fails] counterexample is a lead for the wheel search, not yet a
    divergence proof. *)

val pp_route : Format.formatter -> route -> unit
(** [3>1>0 (pref 100, provider-route)] — hops most-recent first. *)
