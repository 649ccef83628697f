(** Bloom filter over integer keys.

    The paper (§4.1) proposes compressing the destination lists inside
    Permission List entries with Bloom filters. The protocol only prices
    that encoding ({!Centaur.Permission_list.compressed_size_bytes});
    this real filter, sized by the same formula, is the test suite's
    check that the price is the size of a filter that forgets no
    destination. *)

type t

val create : expected:int -> fp_rate:float -> t
(** [create ~expected ~fp_rate] sizes the filter for [expected] insertions
    at target false-positive probability [fp_rate]. Raises
    [Invalid_argument] if [expected <= 0] or [fp_rate] is outside
    (0, 1). The bit count is
    {!Centaur.Permission_list.filter_bits}. *)

val add : t -> int -> unit

val mem : t -> int -> bool
(** No false negatives: after [add t k], [mem t k] is always [true]. *)

val cardinal_estimate : t -> float
(** Estimated number of distinct insertions (swamidass–baldi estimator). *)

val size_bits : t -> int
(** Number of bits in the underlying bit array. *)

val size_bytes : t -> int
(** Serialized size in bytes (bit array only). *)

val num_hashes : t -> int

val fill_ratio : t -> float
(** Fraction of set bits. *)

val optimal_hashes : bits:int -> expected:int -> int
(** The [k = m/n ln 2] formula, at least 1. *)
