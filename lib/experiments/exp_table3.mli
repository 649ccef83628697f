(** Table 3 — characteristics of input topologies.

    Paper row format: Name/Date | Node/Link | Peering/Provider/Sibling.
    Ours reports the synthetic stand-ins at the configured scale; the
    relationship {e mix} (fractions) is what must match, since the
    absolute counts scale with [as_nodes]. *)

type row = {
  name : string;
  nodes : int;
  links : int;
  peering : int;
  provider : int;
  sibling : int;
}

type result = row list

val run : Config.t -> result

val render : result -> string
(** Text table in the paper's column layout, with the relationship
    fractions appended for shape comparison. *)
