(** Shared experiment configuration.

    Every experiment takes one of these; the defaults are sized so the
    full suite regenerates on a laptop in minutes while preserving the
    paper's shapes. The paper's original scales (26k/20k-node measured AS
    graphs, full link sweeps) remain reachable by raising the fields. *)

type t = {
  seed : int;           (** master PRNG seed; everything derives from it *)
  as_nodes : int;       (** size of the synthetic AS topologies (T3–T5, F5) *)
  as_sources : int;     (** sampled P-graph roots for T4/T5 *)
  brite_nodes : int;    (** prototype topology size (F6/F7; paper: 500) *)
  flips : int;          (** links flipped for F6/F7 *)
  fig8_sizes : int list;  (** topology sizes swept in F8 *)
  fig8_events : int;    (** link events measured per size in F8 *)
  resilience_scenarios : int;  (** churn scenarios swept by [exp resilience] *)
  resilience_flaps : int;      (** link flaps per churn scenario *)
  probe_pairs : int;
      (** (src, dest) pairs probed per scenario by [exp resilience] and
          [exp containment] *)
  probe_horizon : float;  (** their observed window per scenario, ms *)
  scale_sizes : int list;
      (** topology sizes swept by [exp scale] (default runs to the
          paper's 26k-node CAIDA scale) *)
  scale_sources : int;  (** sampled P-graph roots per size point *)
  scale_dests : int;    (** sampled destinations for the failure sweep *)
  churn_rates : float list;
      (** offered loads swept by [exp churnrate], stream arrivals/ms *)
  churn_duration : float;  (** stream arrival window per replay, ms *)
  churn_window : float;    (** delta-wave batching window, ms *)
  convergence_samples : int;
      (** random policy configurations per corpus (safe / unsafe) in
          [exp convergence] *)
  convergence_nodes : int;
      (** caida-like topology size for the [exp convergence] corpora *)
  emit_metrics : bool;
      (** append the merged metrics registry to experiment output
          (default false — keeps default output byte-stable) *)
  trace_digest : string option;
      (** when set, instrumented experiments ([exp resilience]) run with
          tracing enabled and write per-run normalized trace digests to
          this file — the CI determinism gate diffs two such files *)
}

val brite_m : int
(** BRITE BA attachment degree of every generated BRITE topology (2). *)

val default : t

val quick : t
(** Small configuration for smoke tests and CI. *)

val pp : Format.formatter -> t -> unit
