(** Whole-topology static analysis (paper §5.2).

    The paper's measurement pipeline on AS topologies: "for each node in
    a given AS topology, we first derive a complete path set reaching all
    other nodes according to the standard business relationship; then we
    build the local P-graph for each node from its path set." This module
    runs that pipeline with the {!Solver} and reports the Table 4 / 5
    structure statistics, plus the Figure 5 immediate-overhead model.

    Complexity is one solver run per destination; [sources] / [dests]
    sampling keeps large topologies tractable (statistics are per-node
    averages and distributions, so sampling estimates them without
    bias). *)

val pgraph_of_source : Topology.t -> src:int -> Pgraph.t
(** Local P-graph of one node: [BuildGraph] over its selected path set
    to every reachable destination. *)

type entry_distribution = {
  one : int;
  two : int;
  three : int;
  more : int;  (** strictly more than 3 entries *)
}
(** Permission-List entry-count population — the Table 5 buckets. *)

type pgraph_stats = {
  num_sources : int;
  avg_links : float;           (** Table 4 row 1: links per P-graph *)
  avg_plists : float;          (** Table 4 row 2: Permission Lists per P-graph *)
  entry_dist : entry_distribution;  (** Table 5, aggregated over sources *)
  avg_plist_compressed_bytes : float;
      (** mean Bloom-compressed Permission List size (§4.1), fp 1% *)
}

val analyze :
  ?discipline:Gao_rexford.discipline ->
  ?policy:Policy.compiled ->
  ?metrics:Obs.Metrics.t ->
  Topology.t ->
  sources:int list ->
  pgraph_stats
(** The P-graph statistics of every listed source (paths to {e all}
    destinations), read off BuildGraph's traversal record
    ({!Pgraph.Traversals}) without building the graphs, and aggregated.
    Raises [Invalid_argument] on an empty
    source list. [discipline] selects the within-class ranking
    (default {!Gao_rexford.Standard}); [Class_only] is the ablation
    matching the paper's bushier P-graphs.

    [policy] routes selection through the compiled policy chains
    ({!Stable.to_dest}'s policy mode); the default compiled policy is
    recognized and keeps the three-phase fast path, so passing
    [Policy.default ()] is byte-identical to passing nothing. The
    compressed Permission-List size column assumes a 1% Bloom
    false-positive rate.

    [metrics], when given, receives [static.dests] / [static.paths]
    counters and a [static.path_len] histogram. Each pool domain
    accumulates into a private registry and the merge is commutative,
    so the aggregated registry is {e identical} for any
    [CENTAUR_DOMAINS] — the domain-invariance law pinned down by
    [test_obs.ml]. When absent, the sweep allocates and touches no
    metrics state at all. *)

val analyze_vf : Topology.t -> sources:int list -> pgraph_stats
(** Same aggregation over the {e per-pair shortest valley-free} path
    sets ({!Vf_paths}) instead of the BGP-stable selection. These path
    sets are not suffix-consistent, so their P-graphs are genuinely
    multi-homed — the methodology that reproduces the paper's Table 4/5
    magnitudes (see EXPERIMENTS.md for the analysis). *)

type link_overhead = {
  link_id : int;
  bgp_units : int;
      (** immediate per-(neighbor, prefix) updates the two endpoints send
          when the link fails *)
  centaur_units : int;
      (** immediate per-(neighbor, link) withdrawals — root cause only *)
}

val immediate_overhead :
  ?dests:int list ->
  ?prefixes:Prefix.t ->
  Topology.t ->
  link_overhead array
(** The Figure 5 experiment: for every link, the update messages
    generated as the {e immediate} result of its failure — no cascading
    (paper: "we do not consider the cascading effects"). BGP endpoints
    withdraw one route per affected destination per session it was
    exported on; Centaur endpoints withdraw the one failed link per
    session it was exported on. [dests] restricts the destination set
    (sampling); default all nodes. [prefixes] weights each destination
    AS by the prefixes it announces (§6.4): BGP's withdrawals multiply
    per prefix while Centaur's per-link withdrawals do not. *)
