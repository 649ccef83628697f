type hooks = {
  before_wave : at:float -> Scenario.event list -> unit;
  after_wave : at:float -> Scenario.event list -> Delta_wave.wave -> unit;
  sample : float -> unit;
}

let drive ?metrics ?policy (runner : Sim.Runner.t) ~topo ~seed ~waves
    ~samples hooks =
  runner.Sim.Runner.seed_loss seed;
  (* Times are relative to the steady state the caller's cold start
     reached: offset them by the engine clock so t=0 means "converged". *)
  let base = runner.Sim.Runner.now () in
  let total = ref Sim.Engine.zero_stats in
  let step t =
    total :=
      Sim.Engine.add_stats !total (runner.Sim.Runner.run_until (base +. t))
  in
  let dw = Delta_wave.create ?metrics () in
  let wave at events =
    step at;
    hooks.before_wave ~at events;
    let w =
      Delta_wave.apply ?policy dw topo runner
        (List.map (fun (e : Scenario.event) -> e.Scenario.change) events)
    in
    hooks.after_wave ~at events w
  in
  let rec go waves samples =
    match (waves, samples) with
    | (at, events) :: rest, [] ->
      wave at events;
      go rest []
    | (at, events) :: rest, s :: _ when at <= s ->
      wave at events;
      go rest samples
    | _, s :: rest ->
      step s;
      hooks.sample s;
      go waves rest
    | [], [] -> ()
  in
  go waves samples;
  (* Drain what is still in flight so the stats cover the whole run. *)
  total :=
    Sim.Engine.add_stats !total (runner.Sim.Runner.run_to_quiescence ());
  Option.iter
    (fun dst -> Obs.Metrics.merge_into ~dst runner.Sim.Runner.metrics)
    metrics;
  !total

let observe obs runner =
  let any f events =
    List.exists (fun (e : Scenario.event) -> f e.Scenario.change) events
  in
  { before_wave = (fun ~at:_ _ -> ());
    after_wave =
      (fun ~at events _ ->
        (* Truth refresh only for link-state members: the Gao–Rexford
           truth of every pair is unchanged by an adversarial override,
           so hijacked and leaked forwarding keeps being judged against
           the honest baseline. *)
        if
          any
            (function
              | Scenario.Set_links _ -> true
              | Scenario.Set_loss _ | Scenario.Set_policy _ -> false)
            events
        then Observer.refresh_truth obs;
        if any Scenario.disrupts events then
          Observer.note_disruption obs runner ~now:at);
    sample = (fun now -> Observer.sample obs runner ~now) }

let run ?metrics ?policy (runner : Sim.Runner.t) ~topo
    ~(scenario : Scenario.t) ~pairs =
  (* Concurrent changes — everything sharing one timestamp — form one
     wave. Changes scheduled past the horizon are unobservable: drop
     them rather than mutate state the report never sees. *)
  let waves =
    List.fold_right
      (fun (e : Scenario.event) waves ->
        match waves with
        | (at, same) :: rest when at = e.Scenario.at -> (at, e :: same) :: rest
        | _ -> (e.Scenario.at, [ e ]) :: waves)
      (List.filter
         (fun (e : Scenario.event) ->
           e.Scenario.at <= scenario.Scenario.horizon)
         (Scenario.compile topo scenario))
      []
  in
  let obs =
    Observer.create topo ~pairs ~sample_every:scenario.Scenario.sample_every
  in
  let cold = runner.Sim.Runner.cold_start () in
  Observer.refresh_truth obs;
  let stats =
    drive ?metrics ?policy runner ~topo ~seed:scenario.Scenario.seed ~waves
      ~samples:(Scenario.sample_times scenario) (observe obs runner)
  in
  Option.iter
    (fun dst -> Obs.Metrics.merge_into ~dst (Observer.metrics obs))
    metrics;
  Observer.report obs ~protocol:runner.Sim.Runner.name
    ~stats:(Sim.Engine.add_stats cold stats)
