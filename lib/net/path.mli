(** Routing paths.

    A path is the ordered list of node ids from the source (head) to the
    destination (last element), both inclusive — the same orientation as
    the paper's ⟨A, C, D⟩ notation. *)

type t = int list

val destination : t -> int
(** Raises [Invalid_argument] on the empty path. *)

val length : t -> int
(** Number of hops, i.e. [List.length p - 1]; 0 for a single-node path. *)

val contains : t -> int -> bool

val is_loop_free : t -> bool
(** No node appears twice. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string
(** Renders ⟨A, C, D⟩-style: [<0, 2, 3>]. *)

(** Where a data-plane walk ends. Each result carries the nodes visited,
    in order, from the source. *)
type walk =
  | Reached of t  (** the path from the source to the destination;
                      [[src]] when [src = dest] *)
  | Stuck of t    (** ends at a node whose next hop is [None] *)
  | Looped of t   (** ends at the first node visited twice *)

val follow : (int -> int option) -> src:int -> dest:int -> walk
(** [follow next ~src ~dest] follows per-node forwarding decisions
    [next] from [src] toward [dest]: the packet's trajectory, which may
    loop when the nodes' decisions disagree (the paper's Figures 1 and
    2). There is no hop limit: a walk over [n] nodes repeats a node
    within [n] steps, so it visits at most [n + 1]. *)
