(** Size-scaling harness: the analysis pipeline at increasing topology
    size, up to the paper's 26k-node CAIDA scale.

    Each size point regenerates a synthetic CAIDA-like topology, runs the
    streamed {!Centaur.Static.analyze} over sampled sources and an
    immediate-overhead failure sweep over sampled destinations, and
    records wall time, minor-heap allocation, and the process peak RSS
    ([VmHWM]). The statistics are deterministic in the seed; the
    timing/memory columns are not, and render separately so CI can diff
    the deterministic part across domain counts. *)

type point = {
  nodes : int;
  links : int;
  sources : int;          (** sampled P-graph roots actually analyzed *)
  sweep_dests : int;      (** sampled destinations in the failure sweep *)
  stats : Centaur.Static.pgraph_stats;
  bgp_units : int;        (** total immediate BGP withdrawals, all links *)
  centaur_units : int;    (** total immediate Centaur withdrawals *)
  gen_ns : int;           (** topology generation wall time *)
  analyze_ns : int;       (** streamed analyze wall time *)
  sweep_ns : int;         (** failure-sweep wall time *)
  minor_words : float;    (** minor-heap words allocated by analyze *)
  major_words : float;    (** major-heap words allocated by analyze *)
  peak_rss_kb : int;      (** process VmHWM after this point (monotone) *)
}

type result = point list

val effective_scale_sizes : Config.t -> int list
(** [Config.scale_sizes], with a 100_000-node point appended when the
    [CENTAUR_SCALE_XL=1] environment variable opts into the 100k-node
    point (minutes of wall time and gigabytes of RSS — never implicit). *)

val run : Config.t -> result
(** One point per {!effective_scale_sizes} entry, in order. *)

val run_point : Config.t -> n:int -> point
(** A single size point (the CI gate runs these one size at a time). *)

val render : result -> string
(** Deterministic statistics table — byte-stable across runs, domain
    counts, and machines for a fixed seed. *)

val render_timing : result -> string
(** Environment-dependent columns: wall times, allocation, peak RSS. *)
