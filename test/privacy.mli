(** Privacy analysis (paper §6.2).

    Claim 2 of the paper: Centaur reveals the same topological and
    policy information as a path-vector protocol — each announced
    P-graph and the corresponding set of path-vector announcements are
    mutually reconstructible. This module implements both directions of
    that reconstruction so the equivalence is checkable rather than
    asserted, plus the paper's "positive note": a Permission List does
    not necessarily identify {e whose} policy it encodes. A test oracle:
    no protocol code calls it. *)

open Centaur

val paths_of_pgraph : Pgraph.t -> (int * Path.t) list
(** What an eavesdropper on a Centaur session learns, expressed as
    path-vector announcements: the derivable path per marked
    destination. *)

val pgraph_of_paths : root:int -> Path.t list -> Pgraph.t
(** What an eavesdropper on a path-vector session can compute: the
    corresponding P-graph with Permission Lists, via the BuildGraph
    procedure (the paper's Claim 2 proof construction). *)

val equivalent : Pgraph.t -> bool
(** Round-trip check for one announced graph [g]:
    [pgraph_of_paths (paths_of_pgraph g)] carries the same derivable
    path set as [g]. This is Claim 2 instantiated. *)

val possible_policy_authors : Pgraph.t -> parent:int -> child:int -> int list
(** Nodes that could have authored the routing restriction expressed by
    the Permission List on [parent → child]: every node lying on {e all}
    derivable paths through the link, at or upstream of [parent] (each
    of them could have filtered or ranked routes to produce the same
    restriction). The paper's example: the list on C→D "might be the
    policy of several possible nodes, such as A or C". Empty when the
    link carries no Permission List. *)
