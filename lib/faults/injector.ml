let run ?metrics ?policy (runner : Sim.Runner.t) ~topo
    ~(scenario : Scenario.t) ~pairs =
  let events =
    (* Changes scheduled past the horizon are unobservable: drop them
       rather than mutate state the report never sees. *)
    List.filter
      (fun (e : Scenario.event) -> e.Scenario.at <= scenario.Scenario.horizon)
      (Scenario.compile topo scenario)
  in
  let has_policy_events =
    List.exists
      (fun (e : Scenario.event) ->
        match e.Scenario.change with
        | Scenario.Set_policy _ -> true
        | Scenario.Set_links _ | Scenario.Set_loss _ -> false)
      events
  in
  if has_policy_events && policy = None then
    invalid_arg
      "Injector.run: scenario has policy faults but no ~policy was given \
       (pass the same compiled policy the runner was built with)";
  let obs =
    Observer.create topo ~pairs
      ~sample_every:scenario.Scenario.sample_every
  in
  runner.Sim.Runner.seed_loss scenario.Scenario.seed;
  let total = ref (runner.Sim.Runner.cold_start ()) in
  Observer.refresh_truth obs;
  (* Scenario times are relative to the steady state reached by cold
     start: offset them by the engine clock so t=0 means "converged". *)
  let base = runner.Sim.Runner.now () in
  let step t =
    total :=
      Sim.Engine.add_stats !total (runner.Sim.Runner.run_until (base +. t))
  in
  (* Concurrent scenario events — everything sharing one timestamp —
     drain as a single delta wave: flaps coalesce, per-destination dirty
     work dedups across the members, and the observer's ground truth and
     disruption bookkeeping update once per wave instead of once per
     event. *)
  let wave = Delta_wave.create ?metrics () in
  let apply_wave ~at (wave_events : Scenario.event list) =
    let any f =
      List.exists (fun (e : Scenario.event) -> f e.Scenario.change) wave_events
    in
    List.iter
      (fun (e : Scenario.event) -> Delta_wave.add wave e.Scenario.change)
      wave_events;
    ignore (Delta_wave.apply ?policy wave topo runner);
    (* Truth refresh only for link-state members: the Gao–Rexford truth
       of every pair is unchanged by an adversarial override, so
       hijacked and leaked forwarding keeps being judged against the
       honest baseline. *)
    if
      any (function
        | Scenario.Set_links _ -> true
        | Scenario.Set_loss _ | Scenario.Set_policy _ -> false)
    then Observer.refresh_truth obs;
    if any Scenario.disrupts then Observer.note_disruption obs runner ~now:at
  in
  (* Interleave injections and samples in time order; at equal times the
     injection applies first, so the sample observes the instant after
     the fault (notifications still queued — the window starts here). *)
  let rec go events next_sample =
    match events with
    | (e : Scenario.event) :: _ when e.Scenario.at <= next_sample ->
      let at = e.Scenario.at in
      let rec split acc = function
        | (e' : Scenario.event) :: rest when e'.Scenario.at = at ->
          split (e' :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let wave_events, rest = split [] events in
      step at;
      apply_wave ~at wave_events;
      go rest next_sample
    | _ ->
      if next_sample <= scenario.Scenario.horizon then begin
        step next_sample;
        Observer.sample obs runner ~now:next_sample;
        go events (next_sample +. scenario.Scenario.sample_every)
      end
  in
  go events 0.0;
  (* Drain whatever convergence is still in flight so the cost counters
     cover the complete scenario. *)
  total :=
    Sim.Engine.add_stats !total (runner.Sim.Runner.run_to_quiescence ());
  (match metrics with
  | None -> ()
  | Some dst ->
    Obs.Metrics.merge_into ~dst runner.Sim.Runner.metrics;
    Obs.Metrics.merge_into ~dst (Observer.metrics obs));
  Observer.report obs ~protocol:runner.Sim.Runner.name ~stats:!total
