type row = {
  nodes : int;
  links : int;
  centaur_msgs_per_event : float;
  bgp_msgs_per_event : float;
  centaur_cold_msgs : int;
  bgp_cold_msgs : int;
}

type result = row list

let row_for cfg ~n =
  let links_count = Topology.num_links (Inputs.brite_sized cfg ~n) in
  let events = max 1 (cfg.Config.fig8_events / 2) in
  let links =
    Inputs.sample_links cfg (Inputs.brite_sized cfg ~n) ~count:events
  in
  let measure make =
    let result =
      Protocols.Convergence.flip_links (make (Inputs.brite_sized cfg ~n)) ~links
    in
    ( Stats.mean (Protocols.Convergence.message_counts result),
      result.Protocols.Convergence.cold.Sim.Engine.messages )
  in
  let centaur_rate, centaur_cold = measure Protocols.Centaur_net.network in
  let bgp_rate, bgp_cold = measure Protocols.Bgp_net.network in
  { nodes = n;
    links = links_count;
    centaur_msgs_per_event = centaur_rate;
    bgp_msgs_per_event = bgp_rate;
    centaur_cold_msgs = centaur_cold;
    bgp_cold_msgs = bgp_cold }

(* Each row builds its own topologies and simulators from per-size RNG
   streams, so the sizes are independent and fan out across the domain
   pool; collecting by index keeps the row order (and every number in
   it) identical to the sequential sweep. *)
let run cfg =
  Array.to_list
    (Pool.parallel_map_array
       (fun n -> row_for cfg ~n)
       (Array.of_list cfg.Config.fig8_sizes))

let render rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 8. Scalability: mean update messages per link event.\n";
  Buffer.add_string buf
    "  nodes  links   Centaur/evt     BGP/evt   ratio   cold C      cold B\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %5d  %5d  %10.1f  %10.1f  %5.1fx  %8d  %8d\n"
           r.nodes r.links r.centaur_msgs_per_event r.bgp_msgs_per_event
           (if r.centaur_msgs_per_event > 0.0 then
              r.bgp_msgs_per_event /. r.centaur_msgs_per_event
            else infinity)
           r.centaur_cold_msgs r.bgp_cold_msgs))
    rows;
  Buffer.add_string buf
    "  (paper: the gap between BGP and Centaur widens with topology size)\n";
  Buffer.contents buf
