type t = {
  seed : int;
  as_nodes : int;
  as_sources : int;
  brite_nodes : int;
  flips : int;
  fig8_sizes : int list;
  fig8_events : int;
  resilience_scenarios : int;
  resilience_flaps : int;
  probe_pairs : int;
  probe_horizon : float;
  scale_sizes : int list;
  scale_sources : int;
  scale_dests : int;
  churn_rates : float list;
  churn_duration : float;
  churn_window : float;
  convergence_samples : int;
  convergence_nodes : int;
  emit_metrics : bool;
  trace_digest : string option;
}

let brite_m = 2

let default =
  { seed = 42;
    as_nodes = 2000;
    as_sources = 60;
    brite_nodes = 500;
    flips = 40;
    fig8_sizes = [ 50; 100; 200; 400; 800 ];
    fig8_events = 12;
    resilience_scenarios = 8;
    resilience_flaps = 6;
    probe_pairs = 40;
    probe_horizon = 400.0;
    scale_sizes = [ 300; 1000; 5000; 26000 ];
    scale_sources = 40;
    scale_dests = 300;
    churn_rates = [ 0.2; 0.5; 1.0 ];
    churn_duration = 300.0;
    churn_window = 8.0;
    convergence_samples = 30;
    convergence_nodes = 24;
    emit_metrics = false;
    trace_digest = None }

let quick =
  { seed = 42;
    as_nodes = 300;
    as_sources = 20;
    brite_nodes = 80;
    flips = 10;
    fig8_sizes = [ 30; 60; 120 ];
    fig8_events = 6;
    resilience_scenarios = 3;
    resilience_flaps = 4;
    probe_pairs = 12;
    probe_horizon = 250.0;
    scale_sizes = [ 300; 1000 ];
    scale_sources = 20;
    scale_dests = 100;
    churn_rates = [ 1.0; 4.0 ];
    churn_duration = 150.0;
    churn_window = 20.0;
    convergence_samples = 12;
    convergence_nodes = 16;
    emit_metrics = false;
    trace_digest = None }

let pp fmt t =
  Format.fprintf fmt
    "seed=%d as_nodes=%d as_sources=%d brite=%d(m=%d) flips=%d" t.seed
    t.as_nodes t.as_sources t.brite_nodes brite_m t.flips
