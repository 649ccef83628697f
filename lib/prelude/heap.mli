(** Imperative min-heap ordered by a float key, then an int tie.

    Used as the event queue of the discrete-event simulator and as the
    priority queue of Dijkstra-style solvers. Keys, ties and payloads
    live in three parallel flat arrays, so a push stores no per-entry
    record and a comparison reads an unboxed float.

    The order is [(key, tie)] and nothing else: there is no hidden
    insertion counter, so callers that need a deterministic order among
    equal keys make their ties unique (the simulator passes its schedule
    counter). Keys must not be NaN. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap. [dummy] fills every payload slot
    that holds no entry, so a popped payload is not kept reachable by the
    heap; it is never returned. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:float -> tie:int -> 'a -> unit

val min_key : 'a t -> float
(** Key of the smallest entry. Raises [Invalid_argument] on an empty
    heap, as do {!min_tie}, {!min_value} and {!pop}. *)

val min_tie : 'a t -> int

val min_value : 'a t -> 'a
(** Payload of the smallest entry, without removing it. *)

val pop : 'a t -> unit
(** Remove the smallest entry. *)

val clear : 'a t -> unit
(** Remove every entry; the capacity is kept. *)
