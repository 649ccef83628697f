(** Generic dirty-set scheduler for delta-first recomputation.

    A [Dirty.t] collects non-negative integer ids that an update has
    invalidated, deduplicating marks, and later drains them in a
    {e deterministic} order (ascending key) so that incremental
    recomputation visits entries in the same order regardless of the
    arrival order of the marks. All three protocol implementations and
    the Centaur node's cross-session invalidation schedule their
    recomputation through this one abstraction, each keyed by
    destination id.

    Membership costs one byte per key, up to the largest key marked;
    emptying the set costs what was marked, not the key range. *)

type t

val create : ?size:int -> unit -> t
(** Fresh empty set. [size] is the initial capacity hint (keys below it
    mark without growing the set); draining empties the set in place,
    keeping its capacity. *)

val mark : t -> int -> unit
(** Add one key; marking an already-dirty key is a no-op. Raises
    [Invalid_argument] on a negative key. *)

val mark_list : t -> int list -> unit

val mark_range : t -> int -> int -> unit
(** [mark_range t lo hi] marks every key in [lo..hi] inclusive (the
    "everything may have changed" case, e.g. a link-state change that
    invalidates a whole shortest-path tree). *)

val mem : t -> int -> bool

val is_empty : t -> bool

val cardinal : t -> int

val clear : t -> unit

val take : t -> int list
(** Remove and return all dirty keys in ascending order. *)

val drain : t -> (int -> unit) -> unit
(** [drain t f] repeatedly {!take}s the pending keys and applies [f] to
    each in ascending order, until the set stays empty — keys marked
    {e during} the drain (a recomputation cascading into another) are
    processed in a later round of the same call, each key at most once
    per round. *)

val fold : t -> init:'acc -> f:('acc -> int -> 'acc) -> 'acc
(** Fold over the dirty keys in ascending order without draining. *)
