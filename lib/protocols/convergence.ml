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

(* Per-run accumulation into a caller-supplied registry: counters sum
   the control-plane cost across runs, the histogram shapes the
   convergence-time distribution. Deterministic: driven only by run
   results, in run order. *)
let record metrics (stats : Sim.Engine.run_stats) ~changed =
  let open Obs.Metrics in
  incr (counter metrics "convergence.runs");
  add (counter metrics "convergence.messages") stats.Sim.Engine.messages;
  add (counter metrics "convergence.units") stats.Sim.Engine.units;
  add (counter metrics "convergence.changed_dests") changed;
  observe
    (histogram metrics "convergence.duration_ms")
    stats.Sim.Engine.duration

(* Run one convergence and read how many destinations actually
   re-routed, off the runner's uniform changed-destination feed. The
   feed drains on read, so each count covers exactly one run. *)
let converge_counting ?metrics (runner : Sim.Runner.t) run =
  ignore (runner.Sim.Runner.changed_dests ());
  let stats = run () in
  let changed = List.length (runner.Sim.Runner.changed_dests ()) in
  (match metrics with Some m -> record m stats ~changed | None -> ());
  stats

let flip_links ?metrics (runner : Sim.Runner.t) ~links =
  let cold = runner.Sim.Runner.cold_start () in
  let flips =
    List.map
      (fun link_id ->
        let down =
          converge_counting ?metrics runner (fun () ->
              runner.Sim.Runner.flip ~link_id ~up:false)
        in
        let up =
          converge_counting ?metrics runner (fun () ->
              runner.Sim.Runner.flip ~link_id ~up:true)
        in
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
