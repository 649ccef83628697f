(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    topology, workload and simulation run is reproducible from a single
    integer seed. The generator is SplitMix64 (Steele, Lea & Flood 2014),
    which is fast, has a 64-bit state, and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in \[lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean. *)

val shuffle_list : t -> 'a list -> 'a list
(** Shuffled copy of a list (Fisher–Yates). *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] distinct elements uniformly without
    replacement ([k] is clamped to [Array.length arr]). *)
