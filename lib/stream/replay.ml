type mode = Event_at_a_time | Waves of float

type outcome = {
  events : int;
  waves : int;
  cancelled : int;
  stats : Sim.Engine.run_stats;
  latencies : float array;
  makespan : float;
}

let latency_buckets =
  [| 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0;
     2000.0; 5000.0 |]

(* Application schedule: [(apply_at, events)] groups in time order.
   Event-at-a-time applies each event at its own timestamp; a window [w]
   drains the events of ((k-1)·w, k·w] together at k·w. *)
let schedule mode (events : Update_stream.event array) =
  let apply_at (e : Update_stream.event) =
    match mode with
    | Event_at_a_time -> e.at
    | Waves w -> w *. Float.of_int (int_of_float (ceil (e.at /. w)))
  in
  let groups = ref [] in
  Array.iter
    (fun e ->
      let t = apply_at e in
      match !groups with
      | (t', g) :: rest when (match mode with
                              | Event_at_a_time -> false
                              | Waves _ -> t' = t) ->
        groups := (t', e :: g) :: rest
      | _ -> groups := (t, [ e ]) :: !groups)
    events;
  (* Groups were built newest-first with each group's events newest
     first; one rev_map restores time order on both levels. *)
  List.rev_map (fun (t, g) -> (t, List.rev g)) !groups

let replay ?metrics ?policy ~topo ~(stream : Update_stream.t) ~mode
    (runner : Sim.Runner.t) =
  if Update_stream.has_policy_events stream && policy = None then
    invalid_arg
      "Replay.replay: stream has policy updates but no ~policy was given \
       (pass the same compiled policy the runner was built with)";
  let hist =
    Option.map
      (fun m -> Obs.Metrics.histogram m ~buckets:latency_buckets
                  "stream.latency_ms")
      metrics
  in
  runner.Sim.Runner.seed_loss stream.Update_stream.seed;
  ignore (runner.Sim.Runner.cold_start ());
  (* Stream times are relative to the converged steady state. *)
  let base = runner.Sim.Runner.now () in
  let n = Update_stream.num_events stream in
  let latencies = Array.make n nan in
  (* Outstanding latency stamps: (stream index, arrival, applied), both
     absolute. Flushed whenever the network is observed quiescent. *)
  let outstanding = ref [] in
  let last_stable = ref base in
  let flush_stamps () =
    let settled = runner.Sim.Runner.last_event_time () in
    List.iter
      (fun (i, arrival, applied) ->
        let stable = Float.max settled applied in
        last_stable := Float.max !last_stable stable;
        let lat = stable -. arrival in
        latencies.(i) <- lat;
        Option.iter (fun h -> Obs.Metrics.observe h lat) hist)
      (List.rev !outstanding);
    outstanding := []
  in
  let total = ref Sim.Engine.zero_stats in
  let step stats = total := Sim.Engine.add_stats !total stats in
  let wave_acc = Faults.Delta_wave.create ?metrics () in
  let waves = ref 0 in
  let cancelled = ref 0 in
  let idx = ref 0 in
  List.iter
    (fun (t_app, evs) ->
      step (runner.Sim.Runner.run_until (base +. t_app));
      if runner.Sim.Runner.pending_events () = 0 then flush_stamps ();
      List.iter
        (fun (e : Update_stream.event) ->
          Faults.Delta_wave.add wave_acc e.change;
          outstanding := (!idx, base +. e.at, base +. t_app) :: !outstanding;
          incr idx)
        evs;
      let w = Faults.Delta_wave.apply ?policy wave_acc topo runner in
      incr waves;
      cancelled := !cancelled + w.Faults.Delta_wave.cancelled)
    (schedule mode (Update_stream.events stream));
  step (runner.Sim.Runner.run_to_quiescence ());
  flush_stamps ();
  (match metrics with
  | None -> ()
  | Some dst -> Obs.Metrics.merge_into ~dst runner.Sim.Runner.metrics);
  { events = n;
    waves = !waves;
    cancelled = !cancelled;
    stats = !total;
    latencies;
    makespan = !last_stable -. base }
