(** Metrics registry: counters and fixed-bucket histograms with a
    deterministic merge.

    A registry is a name-keyed bag of instruments. Instruments are
    mutable and unsynchronized — a registry belongs to one domain.
    Pool-parallel sweeps give every domain (or every work item) its own
    registry and {!merge_into} them afterwards: counter merge is
    addition and histogram merge is bucket-wise addition — both
    commutative and associative with the empty registry as the zero
    element, so the merged result is independent of how the work was
    partitioned and byte-identical to a sequential run (the QCheck laws
    in [test_obs.ml] pin this down).

    Rendering ({!render}, {!to_json}) iterates names in sorted order and
    formats deterministically, so equal registries produce equal text. *)

type t

type counter

type histogram

val create : unit -> t
(** Fresh empty registry — the merge's zero element. *)

val counter : t -> string -> counter
(** Get or register the named counter (starts at 0). An instrument name
    registered with a different kind raises [Invalid_argument]. *)

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val histogram : t -> ?buckets:float array -> string -> histogram
(** Get or register the named histogram with the given upper bounds
    (strictly increasing; default: the roughly-logarithmic millisecond
    bounds 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000); one overflow
    bucket is added past the last bound. Re-registering with different
    bounds raises [Invalid_argument]. *)

val observe : histogram -> float -> unit
(** Count the value into its bucket (first bound [>=] value) and add it
    to the running sum. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst]: counters add, histograms add bucket-wise (instruments missing from [dst] are registered).
    Raises [Invalid_argument] on a kind or bucket-layout conflict. *)

val merge : t -> t -> t
(** Functional merge: a fresh registry holding [merge_into] of both —
    the form the associativity/commutativity laws are stated over. *)

val equal : t -> t -> bool
(** Same instruments with the same values (rendering equality). *)

val render : t -> string
(** Human block: one [name value] line per instrument, sorted by name. *)

val to_json : t -> string
(** Deterministic JSON object
    [{"counters":{…},"histograms":{…}}] with names sorted
    within each section. *)
