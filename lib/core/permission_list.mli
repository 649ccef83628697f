(** Permission Lists (paper §4.1) — the key Centaur data structure.

    A Permission List is attached to a link [A → B] when [B] is
    multi-homed (has more than one parent) in a P-graph. It represents the
    set of {e all and only} derivable policy-compliant paths that pass
    through [A → B].

    The practical representation is the {e per-dest-next encoding}: a set
    of ⟨DestList, NextHop⟩ entries, where a policy-compliant path [p]
    through the link is identified by [p]'s destination and the next hop
    of [B] in [p], a node id, or [-1] when [B] is itself the
    destination.
    Destinations sharing a next hop are grouped into one entry.

    A list is stored flat: an immutable sorted array of (next hop,
    destination) pairs packed into immediate ints, grouped by next hop in
    {!entries} order. {!permit} is a binary search, and comparing or
    pricing a list walks the array once without allocating. Lists are
    built in bulk through a reusable {!scratch}.

    The paper's expressiveness argument (Claim 1) compares this encoding
    with the theoretical {e per-path encoding}; the test suite keeps
    that encoding as an oracle and checks the two equivalent on
    derivable path sets. *)

type t

val empty : t

val is_empty : t -> bool

val add : t -> dest:int -> next:int -> t
(** Record that the path to [dest] continues from the multi-homed node
    through [next] ([-1] when the multi-homed node is the destination).
    Idempotent. Node ids must lie in [0, 2^31 - 1], the range of a
    P-graph's packed link keys ([Invalid_argument] otherwise). Copies
    the list: build lists of more than a few pairs through a
    {!scratch}. *)

val permit : t -> dest:int -> next:int -> bool
(** The [Permit] predicate of the paper's [DerivePath] (Table 1), with
    the next hop as in {!add}. Ids outside the packed range are never
    permitted. Allocates nothing. *)

val filter_dests : t -> (int -> bool) -> t
(** Keep the pairs whose destination satisfies the predicate, in one
    pass; entries left empty disappear. Dropping a destination from every
    entry (steady-phase updates, §4.3) is [filter_dests t ((<>) dest)]. *)

val num_entries : t -> int
(** Number of ⟨DestList, NextHop⟩ pairs — the quantity whose distribution
    the paper reports in Table 5. *)

val entries : t -> (int * int list) list
(** [(next_hop, destinations)] pairs, next hops as in {!add}; next hops
    ascending ([-1] first), destinations ascending. *)

val equal : t -> t -> bool

val iter_diff : t -> t -> (dest:int -> next:int -> unit) -> unit
(** [iter_diff a b f] calls [f] on every (destination, next hop) pair
    that is in exactly one of the two lists, in key order, with the next
    hop as in {!add}: the pairs whose [Permit] answer differs
    between them. One merge walk over both; allocates nothing. *)

val filter_bits : expected:int -> fp_rate:float -> int
(** The Bloom-filter sizing formula [m = -n ln p / (ln 2)^2] bits (at
    least 8) for [expected] keys at false-positive rate [fp_rate]: the
    size {!compressed_size_bytes} prices each entry's filter at. The
    test suite sizes its real filters by it. *)

val compressed_size_bytes : t -> fp_rate:float -> int
(** Wire size when each entry's destination list is Bloom-compressed at
    the given false-positive rate (paper §4.1 suggests Bloom filters):
    per entry, 4 bytes of next hop plus a bit array of {!filter_bits}
    for its destination count, rounded up to whole bytes. Computed
    without building the filters. *)

type scratch
(** A reusable buffer lists are built in: pairs are pushed in any order,
    with duplicates, then sorted in place. Reading the sorted pairs
    (comparing, counting, pricing) allocates nothing; only {!Scratch.freeze}
    copies them into a list. Not thread-safe: one per domain. *)

module Scratch : sig
  val create : unit -> scratch

  val clear : scratch -> unit

  val push : scratch -> dest:int -> next:int -> unit
  (** Add one pair, the next hop as in {!add}. Ids outside the packed
      range raise [Invalid_argument], as in {!add}. *)

  val freeze : scratch -> t
  (** The list of the pairs pushed since the last {!clear}. *)

  val equal : scratch -> t -> bool
  (** [equal s t] iff [freeze s] would equal [t]. *)

  val num_entries : scratch -> int
  (** [num_entries (freeze s)]. *)

  val compressed_size_bytes : scratch -> fp_rate:float -> int
  (** [compressed_size_bytes (freeze s) ~fp_rate]. *)
end

val pp : Format.formatter -> t -> unit
