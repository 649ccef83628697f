(** Text serialization of topologies.

    Format (one record per line, [#]-comments and blank lines ignored):
    {v
    nodes <N>
    link <a> <b> <relationship-of-b-to-a> <delay-ms>
    v} *)

val to_string : Topology.t -> string

val of_string : string -> (Topology.t, string) result
(** Parse; the error carries the offending line. A node count over
    10^6 is an error, as is every input {!Topology.create} rejects. *)

val save : Topology.t -> string -> unit
(** Write to a file path. *)

val load : string -> (Topology.t, string) result
