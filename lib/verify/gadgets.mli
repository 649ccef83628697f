(** Classic policy-oscillation gadgets and randomized policy corpora.

    The certify-vs-oscillate harness needs known-bad configurations
    with known analyzer verdicts, and streams of random configurations
    whose verdicts the property tests can cross-check against actual
    runs. This module provides both:

    - the three textbook gadgets (DISAGREE, BAD GADGET, the RFC 4264
      BGP wedgie), each a concrete topology + policy whose dispute
      wheel the analyzer must extract;
    - a randomized BAD GADGET family (odd preference rings have no
      stable state, so every member diverges under {e every} schedule —
      the reproducible-oscillation side of the harness);
    - a seeded random-configuration generator with a [safe] switch,
      feeding the certified-implies-quiescent property and the
      [exp convergence] corpus table. *)

type gadget = {
  name : string;
  topo : Topology.t;
  config : Policy.config;
  dest : int;  (** the destination whose routes dispute *)
}

val bad_gadget : unit -> gadget
(** Three providers of the destination in a preference ring: no stable
    state at all, so every protocol run diverges and the stable solver
    raises [Stable.Diverged]. 3-hub wheel. *)

val all : unit -> gadget list
(** The three textbook gadgets, in this order:
    - DISAGREE: two providers of the destination, peered, each
      preferring the path through the other. Two stable states,
      order-dependent convergence. The analyzer flags a 2-hub wheel;
      the sequential (Gauss–Seidel) stable solver converges to one of
      the states.
    - BAD GADGET, as {!bad_gadget}.
    - The RFC 4264 BGP wedgie: a customer with a primary and a backup
      provider, the backup preferring provider-learned routes. Two
      stable states (intended and wedged); a 2-hub wheel spanning the
      backup provider and its transit. *)

val bad_gadget_family : seed:int -> gadget
(** A randomized BAD GADGET: ring size drawn from \{3, 5, 7\} (odd, so
    no stable state exists), random link delays and preference values.
    Every member must be flagged with a wheel by the analyzer, and every
    bounded protocol run on it must raise [Engine.Diverged]. *)

val random_config :
  Rng.t -> Topology.t -> safe:bool -> Policy.config
(** A random policy for the given topology. With [safe:true] the
    generator stays inside the structural Gao–Rexford envelope
    (preference boosts and export permits only in chains the analyzer's
    {!Dispute.customer_only} accepts, plus filters and tags anywhere) —
    such configurations are usually
    certified, and certified ones must quiesce. With [safe:false] it
    may also emit preference boosts on arbitrary chains and custom
    export permits, producing configurations the analyzer may flag or
    leave inconclusive. The result always validates under
    [Policy.compile ~num_nodes]. *)
