(** A square bit matrix over node ids, stored one row at a time.

    Row [r] is a set of ids in [\[0, n)]: the Centaur node keeps one row
    per node over destinations (the cached destinations whose path
    visits it, the installed destinations whose path enters it). A row
    is [(n + 7) / 8] bytes, allocated the first time a bit is set in it,
    so rows never touched cost one word. Adding, removing and scanning
    allocate nothing; a set is read back in ascending order with
    {!next}. Ids outside [\[0, n)] raise [Invalid_argument]. *)

type t

val create : int -> t
(** [create n]: [n] empty rows of [n] bits. *)

val add : t -> int -> int -> unit
(** [add t r i] puts [i] into row [r]. *)

val remove : t -> int -> int -> unit
(** [remove t r i] takes [i] out of row [r]; a no-op when it is absent. *)

val mem : t -> int -> int -> bool

val next : t -> int -> int -> int
(** [next t r i] is the smallest member of row [r] that is [>= i], or
    [-1] when there is none. [i] may be any non-negative int. A row is
    walked without a closure:
    {[ let i = ref (next t r 0) in
       while !i >= 0 do ...; i := next t r (!i + 1) done ]} *)
