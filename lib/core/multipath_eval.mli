(** Multi-path Centaur evaluation (paper §7).

    Quantifies the paper's anticipation that Centaur "can propagate
    multiple paths for a destination in a more compact and scalable way"
    than path vector: build the multi-path P-graph of a node's k-best
    path set and compare its announcement size against add-path
    path-vector (which repeats every path in full), and measure how
    faithfully the per-dest-next Permission-List encoding captures the
    path set (the encoding may close the set under prefix recombination;
    the report's [excess]). *)

type report = {
  k : int;
  dests : int;            (** destinations in the path set *)
  paths : int;            (** announced paths *)
  pv_hops : int;          (** add-path path-vector cost: Σ path lengths *)
  centaur_links : int;    (** P-graph links announced once each *)
  pl_entries : int;       (** Permission List entries across the graph *)
  compaction : float;     (** pv_hops / (centaur_links + pl_entries) *)
  derived_paths : int;    (** paths derivable from the P-graph *)
  excess : float;         (** (derived - announced) / announced *)
}

val of_ranked : (int, Path.t list list) Hashtbl.t -> k:int -> report
(** [of_ranked ranked ~k] measures the k-best path sets of every source
    in [ranked] (as {!Multipath.ranked_sets} returns them, with
    [kmax >= k]): each source announces the first [k] routes of each
    destination's list, in the multi-path P-graph rooted at the source.
    The counts are summed over the sources, and [compaction] and
    [excess] are the ratios of the sums. *)

val render : report list -> string
