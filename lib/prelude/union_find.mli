(** Disjoint-set forest with union by rank and path compression.

    Used by the dispute analyzer to contract sibling links. *)

type t

val create : int -> t
(** [create n] has elements [0 .. n-1], each in its own set. *)

val find : t -> int -> int
(** Canonical representative; compresses paths. *)

val union : t -> int -> int -> bool
(** Merge the two sets; [true] if they were previously distinct. *)
