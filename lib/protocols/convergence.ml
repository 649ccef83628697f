type flip_sample = {
  link_id : int;
  down : Sim.Engine.run_stats;
  up : Sim.Engine.run_stats;
}

type result = {
  protocol : string;
  cold : Sim.Engine.run_stats;
  flips : flip_sample list;
}

let flip_links (runner : Sim.Runner.t) ~links =
  let cold = runner.Sim.Runner.cold_start () in
  let flips =
    List.map
      (fun link_id ->
        let down = runner.Sim.Runner.flip ~link_id ~up:false in
        let up = runner.Sim.Runner.flip ~link_id ~up:true in
        { link_id; down; up })
      links
  in
  { protocol = runner.Sim.Runner.name; cold; flips }

let gather f result =
  let samples =
    List.concat_map (fun s -> [ f s.down; f s.up ]) result.flips
  in
  Array.of_list samples

let times result = gather (fun (s : Sim.Engine.run_stats) -> s.duration) result

let message_counts result =
  gather (fun (s : Sim.Engine.run_stats) -> float_of_int s.messages) result
