(** Ablation benches for the design choices DESIGN.md calls out.

    - {b MRAI}: Figure 6's convergence-time gap is driven by BGP's
      batching timer. Sweeping MRAI (0 disables it) shows the gap
      collapse to pure propagation delay — evidence that Centaur's
      advantage is exactly the removal of path-exploration rounds.
    - {b Split horizon}: Centaur's sender-side split horizon (never
      announce a path to a neighbor already on it) vs. receiver-side
      import filtering only (the paper's §4.3 Step 2); measures the
      wasted announcements the receiver-side-only variant sends. *)

type mrai_row = {
  mrai : float;
  bgp_median_ms : float;
  bgp_p95_ms : float;
  centaur_median_ms : float;  (** same workload, for reference *)
}

val run_mrai : Config.t -> mrai_row list
(** Flip workload on a reduced BRITE topology under MRAI of 0, 10 and
    30 ms. *)

val render_mrai : mrai_row list -> string

val run_multipath : Config.t -> Centaur.Multipath_eval.report list
(** §7 multi-path compactness: k ∈ {1, 2, 3} on the caida-like
    topology, summed over the sampled sources
    ({!Centaur.Multipath_eval.of_ranked}). *)

val render_multipath : Centaur.Multipath_eval.report list -> string
