(** Interned paths: each distinct path held once, as an int id.

    A store holds every path its holders hold, each as one entry: the
    path's first node and the id of its rest, with its list built on
    the rest's list, so a path and all of its suffixes share their
    cells. The entry for a path is found before one is added, so two
    live ids are equal exactly when their paths are, and extending a
    path by one node is a lookup.

    An entry's holders are the callers that {!acquire}d it and the
    entries it is the rest of. {!release} drops one; at zero the entry
    is freed, it drops its own hold on its rest, and its id is handed
    out again before the store grows. An entry {!single} or {!extend}
    creates has no holder until its caller acquires it.

    Ids are non-negative and follow from the order of the calls alone,
    so a deterministic caller gets the same ids on every run. *)

type t

val create : nodes:int -> t
(** An empty store for paths over node ids in [\[0, nodes)]. Raises
    [Invalid_argument] when [nodes < 1]. *)

val single : t -> int -> int
(** The id of the one-node path [[v]]. *)

val extend : t -> int -> int -> int
(** [extend t v rest] is the id of the path [v :: path t rest]; [rest]
    must be live. A new entry holds [rest]. Allocates only when the
    path is new. *)

val path : t -> int -> Path.t
(** The id's path, [[]] for [-1]. One array read; the list is shared
    with the store and with every path it is the rest of. *)

val acquire : t -> int -> unit
(** Hold a live id once more. Raises [Invalid_argument] on a freed
    id. *)

val release : t -> int -> unit
(** Drop one hold. Raises [Invalid_argument] when the id has none. *)

val entries : t -> (Path.t * int) list
(** Every entry not freed, with its number of holders, sorted by path
    ({!Path.compare}). *)
