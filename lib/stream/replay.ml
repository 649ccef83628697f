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
   drains the events of ((k-1)·w, k·w] together at k·w. The wave time
   stays in floats, and the [max] keeps a rounded k·w from landing
   before its event; both are monotone in [at], so the groups stay in
   time order. *)
let schedule mode (events : Update_stream.event array) =
  (match mode with
  | Waves w when not (Float.is_finite w && w > 0.0) ->
    invalid_arg "Replay: the wave window must be finite and > 0"
  | Waves _ | Event_at_a_time -> ());
  let apply_at (e : Update_stream.event) =
    match mode with
    | Event_at_a_time -> e.at
    | Waves w -> Float.max e.at (w *. ceil (e.at /. w))
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
  let hist =
    Option.map
      (fun m -> Obs.Metrics.histogram m ~buckets:latency_buckets
                  "stream.latency_ms")
      metrics
  in
  let waves = schedule mode (Update_stream.events stream) in
  ignore (runner.Sim.Runner.cold_start ());
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
  let drained = ref 0 in
  let cancelled = ref 0 in
  let idx = ref 0 in
  let stats =
    Faults.Injector.drive ?metrics ?policy runner ~topo
      ~seed:stream.Update_stream.seed
      ~waves
      ~samples:[]
      { before_wave =
          (fun ~at evs ->
            if runner.Sim.Runner.pending_events () = 0 then flush_stamps ();
            List.iter
              (fun (e : Update_stream.event) ->
                outstanding := (!idx, base +. e.at, base +. at) :: !outstanding;
                incr idx)
              evs);
        after_wave =
          (fun ~at:_ _ w ->
            incr drained;
            cancelled := !cancelled + w.Faults.Delta_wave.cancelled);
        sample = ignore }
  in
  flush_stamps ();
  { events = n;
    waves = !drained;
    cancelled = !cancelled;
    stats;
    latencies;
    makespan = !last_stable -. base }
