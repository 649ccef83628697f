type maker =
  ?trace:Obs.Trace.t -> ?policy:Policy.compiled -> Topology.t -> Sim.Runner.t

(* Each net keeps its own constructor signature; the table normalizes
   them to one shape. *)
let all : (string * maker) list =
  [ ("centaur", Centaur_net.network);
    ("bgp", fun ?trace ?policy topo -> Bgp_net.network ?trace ?policy topo);
    ( "bgp-rcn",
      fun ?trace ?policy topo ->
        Bgp_net.network ~rcn:true ?trace ?policy topo );
    ("ospf", fun ?trace ?policy topo -> Ospf_net.network ?trace ?policy topo) ]

let names = List.map fst all

let find name = List.assoc_opt name all
