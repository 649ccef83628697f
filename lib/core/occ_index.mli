(** Occurrence arena: the flat inverted index under the Centaur node's
    derived-path cache and the export builders' use counters.

    Each entry records one occurrence of a [key] (a node, a link slot)
    in an owner's path, with two int payloads. Entries live in parallel
    int arrays grown geometrically, with freed entries recycled through
    a free list. They are chained doubly through their key, so removing
    one is O(1) and the entries of a key are walked in place, and singly
    through their owner: the caller keeps the head of each owner's chain
    and tears a whole path down by walking it. Nothing is allocated per
    entry. *)

type t

val nil : int
(** The end-of-chain handle, [-1]. *)

val create : unit -> t

val add : t -> key:int -> value:int -> aux:int -> owner:int -> int
(** A new entry at the head of [key]'s chain; [owner] is the current
    head of the owner's chain (or {!nil}). Returns the entry, the owner
    chain's new head. *)

val remove : t -> int -> int
(** Unlink an entry from its key chain and free it; returns the next
    entry of its owner chain. *)

val key : t -> int -> int

val value : t -> int -> int

val aux : t -> int -> int

val first : t -> int -> int
(** First entry of a key's chain, {!nil} when the key has none. *)

val next : t -> int -> int
(** The following entry of the same key. *)
