(** Downstream link announcements (paper §3.2.1, §4.3).

    Centaur nodes exchange {e link-level} updates: a full or incremental
    description of the sender's exported P-graph. A message carries link
    insertions (with their Permission Lists), link withdrawals — the
    root-cause information that lets receivers discard every path through
    a failed link at once — and destination-mark changes.

    Overhead accounting follows the paper's message-count metric: BGP is
    charged one unit per (neighbor, prefix) update, Centaur one unit per
    (neighbor, link) change ({!units}). *)

type t = {
  sender : int;
  delta : Pgraph.delta;
}

val make : sender:int -> Pgraph.delta -> t

val units : t -> int
(** Link-level changes carried; destination-mark-only updates count 1. *)

val wire_bytes : ?plist_fp_rate:float -> t -> int
(** Serialized size of the update with every Permission List carried as
    its Bloom-compressed encoding at the given false-positive rate
    (default 1%), priced by {!Permission_list.compressed_size_bytes}
    without building the filters: an 8-byte header, 8 bytes per link
    key, a presence flag plus the compressed list per inserted link (0
    bytes for an empty list), 4 bytes per destination mark. *)
