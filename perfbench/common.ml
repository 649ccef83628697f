(* Pieces the three workloads share. *)

(* Every workload runs a fixed body of work drawn from this configuration
   (seed 42): the graphs, the flipped links and their order, the update
   stream and its loss draws, the analysed sources and destinations. The
   workload seed draws only what leaves that work unchanged (the pairs the
   output checks probe, the order analyze hands its inputs over in), so
   the run-to-run spread is the machine's and the counted metrics move
   only when the code does. *)
let graph_cfg = Experiments.Config.default

let seed_cfg seed = { Experiments.Config.default with seed }

(* One protocol under test on its own topology instance (the engines
   mutate link state, so no two runners share one). *)
type net = { runner : Sim.Runner.t; topo : Topology.t; policy : Policy.compiled }

(* In [Catalog.protocols] order. *)
let untraced_makers =
  [ ("centaur_net", fun ~policy topo -> Protocols.Centaur_net.network ~policy topo);
    ("bgp_net", fun ~policy topo -> Protocols.Bgp_net.network ~policy topo);
    ("ospf_net", fun ~policy topo -> Protocols.Ospf_net.network ~policy topo) ]

(* Per-protocol timers and the makers of the traced set: every runner
   wrapped, Centaur's optionally replaced (the flip workload's twin). *)
let traced_makers ?centaur () =
  let protos = List.map (fun (name, _) -> (name, Layers.proto ())) untraced_makers in
  let makers =
    List.map
      (fun (name, make) ->
        let make =
          match centaur with Some c when name = "centaur_net" -> c | _ -> make
        in
        (name, fun ~policy topo -> Layers.wrap (List.assoc name protos) (make ~policy topo)))
      untraced_makers
  in
  (protos, makers)

(* Input generation plus every cold start: one BRITE copy per protocol. *)
let setup ?(brite = Span.create ()) cfg ~nodes makers =
  let nets =
    List.map
      (fun (_, make) ->
        let topo =
          Span.time brite (fun () -> Experiments.Inputs.brite_sized cfg ~n:nodes)
        in
        let policy = Policy.default () in
        { runner = make ~policy topo; topo; policy })
      makers
  in
  List.iter (fun n -> ignore (n.runner.Sim.Runner.cold_start ())) nets;
  nets

(* Minor and major words allocated so far. *)
let words () =
  let minor, _, major = Gc.counters () in
  (minor, major)

let peak_rss_mb () =
  match Sys_stats.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "peak RSS unavailable (/proc/self/status has no VmHWM)"

(* [f] run [k] times; the last result and every wall time. With
   [compact] each run starts from a collected heap, so one copy's garbage
   neither slows the next nor raises the peak RSS. *)
let repeat_setup ?(compact = true) k f =
  let times = Samples.create () in
  let last = ref None in
  for _ = 1 to k do
    last := None;
    if compact then Gc.compact ();
    let r, dt = Span.wall f in
    Samples.add times dt;
    last := Some r
  done;
  (Option.get !last, times)

let diverged = function
  | Sim.Engine.Diverged _ | Stable.Diverged -> true
  | _ -> false

(* Probe [pairs] on a converged runner against the observer's ground
   truth: a routable pair must be delivered. Returns the failed count. *)
let probe_failures obs (r : Sim.Runner.t) pairs =
  List.fold_left
    (fun bad (src, dest) ->
      match Faults.Observer.probe obs r ~src ~dest with
      | Faults.Observer.Delivered | Faults.Observer.Unroutable -> bad
      | Faults.Observer.Blackholed | Faults.Observer.Looped -> bad + 1)
    0 pairs

let rejects nets = List.fold_left (fun a n -> a + Policy.rejects n.policy) 0 nets

(* A workload's traced metrics plus a 0 for every per-layer metric it
   does not measure, so each traced run prints the whole catalog. *)
let complete metrics =
  metrics
  @ List.filter_map
      (fun (name, _) ->
        if List.exists (fun (m : Report.metric) -> m.name = name) metrics then None
        else Some (Report.metric name ~over:"not measured on this workload" ~n:0 0.0))
      Catalog.per_layer

(* The per-protocol runner timers, normalised per op. *)
let proto_metrics protos ~cold_starts ~per_op ~over ~n =
  List.concat_map
    (fun (p, (l : Layers.proto)) ->
      let name field = "protocols." ^ p ^ "." ^ field in
      let per s = Report.metric (name s) ~over ~n in
      [ Report.metric (name "cold_start_s") ~over:"cold start" ~n:cold_starts
          (Report.ratio l.cold_start.Span.secs l.cold_start.Span.calls);
        per "flip_s" (per_op l.flip.Span.secs);
        per "run_until_s" (per_op l.run.Span.secs);
        per "on_policy_change_s" (per_op l.on_policy_change.Span.secs);
        per "next_hop_s" (per_op l.next_hop.Span.secs) ])
    protos
  @ [ Report.metric "sim.runner.inject_s" ~over ~n
        (per_op (Span.sum (List.map (fun (_, l) -> l.Layers.inject) protos)));
      Report.metric "sim.runner.set_loss_s" ~over ~n
        (per_op (Span.sum (List.map (fun (_, l) -> l.Layers.set_loss) protos))) ]
