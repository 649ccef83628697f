(** Convergence safety analyzer: certify, or extract a dispute wheel.

    Given a topology and a compiled policy configuration, the analyzer
    renders one of three verdicts:

    - {b Certified}: the configuration provably converges under every
      activation schedule. Two independent certificates are tried:
      {ul
      {- {e Gao–Rexford structure}: the provider–customer hierarchy is
         acyclic (sibling groups contracted), every import preference
         boost lives in a chain that can only apply to customer-learned
         routes, every custom export [permit] lives in a chain that can
         only export to customers, and no scenario overrides are active.
         These are exactly the syntactic conditions under which the
         configuration stays inside the Gao–Rexford safety envelope the
         rest of the repo hard-codes.}
      {- {e Strict monotonicity}: the routing algebra of the
         configuration ({!Algebra}) strictly degrades the global order
         λ on every permitted extension, over a complete enumeration of
         every destination's permitted routes — which rules out dispute
         wheels outright (see the {!Algebra} header), covering safe
         configurations well outside Gao–Rexford (peer-to-peer transit,
         provider cycles with default preferences, …).}}
    - {b Wheel}: a concrete dispute wheel — a cycle of hub nodes, each
      strictly preferring the route through the next hub over its own
      spoke route — the Griffin–Shepherd–Wilfong structure underlying
      every policy oscillation (BAD GADGET, DISAGREE, the RFC 4264 BGP
      wedgie). The wheel cites the routes involved and, when the policy
      came from a parsed configuration, the source line of the rule that
      granted each rim its preference.
    - {b Inconclusive}: neither certificate applies and the (single-link
      rim) wheel search found nothing; the reasons list says which
      conditions failed and what was not searched.

    Verdicts are sound in both directions that matter: a certified
    configuration never diverges, and a reported wheel is a genuine
    wheel of permitted routes. [Inconclusive] claims nothing. *)

type cert =
  | Gao_rexford_structure
  | Strict_monotonicity of { dests : int; routes : int }
      (** [routes] = permitted routes enumerated across [dests]
          destinations. *)

type hub = {
  node : int;
  spoke : Algebra.route;        (** the route the hub falls back to *)
  rim : Algebra.route;          (** strictly preferred; its tail is the
                                    next hub's spoke *)
  rim_line : int option;        (** source line of the import rule that
                                    decided the rim's preference *)
}

type wheel = { dest : int; hubs : hub list }
(** [hubs] in cycle order: each hub's [rim] goes through the next hub
    (wrapping), whose [spoke] is the rim's tail. The cycle starts at
    its lowest-numbered hub. *)

type verdict =
  | Certified of cert
  | Wheel of wheel
  | Inconclusive of string list

val analyze :
  ?discipline:Gao_rexford.discipline ->
  ?policy:Policy.compiled ->
  ?dests:int list ->
  Topology.t ->
  verdict
(** Run the pipeline: structural certificate, then (per destination in
    [dests], default all nodes) enumeration + monotonicity certificate,
    then wheel search on the destinations where monotonicity failed.
    Enumerations truncated by {!Algebra.enumerate}'s route cap forfeit
    the monotonicity certificate and degrade to [Inconclusive] unless a
    wheel is found anyway. Output is deterministic for a given input. *)

val customer_only : Topology.t -> int -> Policy.peer_sel -> bool
(** [customer_only topo node sel]: a chain of [node] under [sel] can
    only ever apply to customer-role neighbors — the structural
    certificate's rule for where import preference boosts and custom
    export permits are safe. Roles are read over every link of the node,
    ignoring link state (business relationships are static contracts,
    and the certificate must survive links coming back up). A chain for
    a non-neighbor never runs and counts as customer-only. *)

val is_certified : verdict -> bool

val render : verdict -> string
(** Stable multi-line rendering, newline-terminated — the format the
    [verify] CLI prints and the analyzer corpus gate diffs. *)

val pp : Format.formatter -> verdict -> unit
