(** The one protocol-constructor table.

    Every harness that builds protocols by name — the [simulate] CLI,
    the resilience and containment experiments — goes through this
    table, so a construction knob (trace, compiled policy) is plumbed
    once and every consumer picks it up. *)

type maker =
  ?trace:Obs.Trace.t -> ?policy:Policy.compiled -> Topology.t -> Sim.Runner.t
(** Uniform constructor: [trace] defaults to disabled and [policy] to
    the default compiled Gao–Rexford, which OSPF ignores; every other
    setting is the net's own default (BGP's MRAI is 30 ms). *)

val all : (string * maker) list
(** [centaur], [bgp], [bgp-rcn], [ospf] — in display order. *)

val names : string list

val find : string -> maker option
