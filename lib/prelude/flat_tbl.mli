(** Open-addressing int → int hash table on flat arrays.

    The storage primitive of the arena/struct-of-arrays layouts: a
    key → slot-index map with {e zero per-entry allocation}. Two parallel
    int arrays (keys, values), linear probing, geometric growth at 50%
    load, tombstone deletion with compaction on growth. Keys are mixed
    through a SplitMix64 finalizer before probing, so densely packed
    bit-field keys (the P-graph's [parent lsl 31 lor child]) spread
    evenly.

    Two keys are reserved as sentinels: [min_int] and [min_int + 1].
    Inserting either raises [Invalid_argument]; node/link/packed-link ids
    are all non-negative, so the restriction never bites in practice.

    Not thread-safe. *)

type t

val create : ?initial:int -> unit -> t
(** An empty table with capacity at least [initial] (default 16, rounded
    up to a power of two). *)

val length : t -> int
(** Number of live entries. *)

val set : t -> int -> int -> unit
(** Insert or overwrite. *)

val find_opt : t -> int -> int option

val find_default : t -> int -> default:int -> int
(** Allocation-free lookup for hot paths. *)

val mem : t -> int -> bool

val remove : t -> int -> unit
(** No-op when the key is absent. *)

val add_to : t -> int -> int -> int
(** [add_to t k delta] adds [delta] to the value bound to [k] (treating
    an absent key as 0), stores and returns the new value. *)

val iter : t -> (int -> int -> unit) -> unit
(** Visit every binding in unspecified (slot) order. *)

val fold : t -> init:'acc -> f:('acc -> int -> int -> 'acc) -> 'acc

val clear : t -> unit
(** Drop every binding, keeping the capacity. *)
