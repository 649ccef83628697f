(** Inter-AS business relationships.

    Centaur (like BGP) assumes the standard customer / provider / peering
    relationships between autonomous systems (paper §1, §5.1). A value of
    this type always describes the {e neighbor's} role relative to the
    local node: if node [a] holds [Provider] for neighbor [b], then [b] is
    [a]'s provider (and symmetrically [b] must hold [Customer] for [a]). *)

type t =
  | Customer   (** the neighbor is my customer: it pays me for transit *)
  | Provider   (** the neighbor is my provider: I pay it for transit *)
  | Peer       (** settlement-free peering *)
  | Sibling    (** same organisation; routes are exchanged freely *)

val invert : t -> t
(** The relationship as seen from the other endpoint:
    [invert Customer = Provider], [invert Peer = Peer],
    [invert Sibling = Sibling]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts the full names and the short forms
    [c2p]-style used in topology files ([cust], [prov], [peer], [sib]). *)

val equal : t -> t -> bool

val all : t list
(** All four constructors, for exhaustive iteration in tests. *)
