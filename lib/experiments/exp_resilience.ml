(* The reliability experiment the paper's Figures 1/2 motivate but its
   evaluation never runs: observe the data plane *while* the protocols
   converge under churn. Each scenario is a seeded schedule of link
   flaps, one node outage, one SRLG cut and a lossy-link window; the
   observer probes sampled (src, dest) pairs every few milliseconds and
   charges blackhole/loop time to whichever protocol exhibits it. *)

let sample_every = 5.0

type agg = {
  protocol : string;
  availability : float;
  blackhole_ms : float;
  loop_ms : float;
  unavailable_ms : float;
  unroutable_ms : float;
  pair_unavail : float array;   (* per (scenario, pair), for the CDF *)
  recovery : float array;       (* per disruption *)
  ttfc : float array;           (* per (pair, disruption) *)
  messages : int;
  losses : int;
}

type result = {
  scenarios : int;
  pairs : int;
  horizon : float;
  rows : agg list;  (* centaur, bgp, ospf — fixed order *)
  registries : (string * Obs.Metrics.t) list;
      (* protocol -> merged per-run metrics; [] unless emit_metrics *)
}

(* Built by name through the shared constructor table, each at its
   net's default settings. *)
let protocols = [ "centaur"; "bgp"; "ospf" ]

(* Traced runs keep the last ~1M events; a truncated ring still digests
   deterministically (the dropped count is part of the digest), so the
   determinism gate holds at any scenario size. *)
let trace_capacity = 1 lsl 20

let scenario_for cfg i topo =
  Faults.Scenario.random_churn
    ~seed:((cfg.Config.seed * 1_000_003) + 7_000 + i)
    ~horizon:cfg.Config.probe_horizon ~sample_every
    ~flaps:cfg.Config.resilience_flaps topo

(* One work item: a full scenario against every protocol, on private
   topology instances (the engines mutate link state). Fanned out over
   the domain pool; collection by index keeps the aggregate identical
   to a sequential sweep. *)
let run_scenario cfg ~pairs i =
  let traced = cfg.Config.trace_digest <> None in
  let scenario = scenario_for cfg i (Inputs.brite cfg) in
  List.map
    (fun name ->
      let make = Option.get (Protocols.Proto_table.find name) in
      let topo = Inputs.brite cfg in
      let trace =
        if traced then Obs.Trace.create ~capacity:trace_capacity ()
        else Obs.Trace.none
      in
      let metrics =
        if cfg.Config.emit_metrics then Some (Obs.Metrics.create ()) else None
      in
      let runner = make ~trace topo in
      let report = Faults.Injector.run ?metrics runner ~topo ~scenario ~pairs in
      let digest =
        if traced then Some (Digest.to_hex (Digest.string (Obs.Trace.digest trace)))
        else None
      in
      (report, digest, metrics))
    protocols

let aggregate name (reports : Faults.Observer.report list) =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  let sumi f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let concat f = Array.concat (List.map f reports) in
  let avail =
    (* Scenarios share horizon and sampling period, so the sample-count
       weighted mean of per-scenario availabilities is the right pool. *)
    let num =
      sum (fun r ->
          r.Faults.Observer.availability
          *. float_of_int r.Faults.Observer.samples)
    and den = sum (fun r -> float_of_int r.Faults.Observer.samples) in
    if den = 0.0 then 1.0 else num /. den
  in
  { protocol = name;
    availability = avail;
    blackhole_ms = sum (fun r -> r.Faults.Observer.blackhole_ms);
    loop_ms = sum (fun r -> r.Faults.Observer.loop_ms);
    unavailable_ms = sum (fun r -> r.Faults.Observer.unavailable_ms);
    unroutable_ms = sum (fun r -> r.Faults.Observer.unroutable_ms);
    pair_unavail = concat (fun r -> r.Faults.Observer.pair_unavail_ms);
    recovery = concat (fun r -> r.Faults.Observer.recovery_ms);
    ttfc = concat (fun r -> r.Faults.Observer.ttfc_ms);
    messages = sumi (fun r -> r.Faults.Observer.stats.Sim.Engine.messages);
    losses = sumi (fun r -> r.Faults.Observer.stats.Sim.Engine.losses) }

let run cfg =
  let pairs =
    Inputs.sample_pairs cfg (Inputs.brite cfg)
      ~count:cfg.Config.probe_pairs
  in
  let per_scenario =
    Pool.parallel_map_array
      (fun i -> run_scenario cfg ~pairs i)
      (Array.init cfg.Config.resilience_scenarios Fun.id)
  in
  let nth_run reports p = List.nth reports p in
  let rows =
    List.mapi
      (fun p name ->
        aggregate name
          (Array.to_list
             (Array.map
                (fun reports ->
                  let r, _, _ = nth_run reports p in
                  r)
                per_scenario)))
      protocols
  in
  (* Scenario registries merge in index order; the merge is commutative
     and associative, so the pooled scheduling can't change the result. *)
  let registries =
    if not cfg.Config.emit_metrics then []
    else
      List.mapi
        (fun p name ->
          let dst = Obs.Metrics.create () in
          Array.iter
            (fun reports ->
              match nth_run reports p with
              | _, _, Some m -> Obs.Metrics.merge_into ~dst m
              | _, _, None -> ())
            per_scenario;
          (name, dst))
        protocols
  in
  (* Per protocol, one MD5 of each scenario's normalized trace digest. *)
  (match cfg.Config.trace_digest with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    List.iteri
      (fun p name ->
        Array.iteri
          (fun i reports ->
            match nth_run reports p with
            | _, Some d, _ ->
              Printf.fprintf oc "scenario=%d protocol=%s digest=%s\n" i name d
            | _, None, _ -> ())
          per_scenario)
      protocols;
    close_out oc);
  { scenarios = cfg.Config.resilience_scenarios;
    pairs = List.length pairs;
    horizon = cfg.Config.probe_horizon;
    rows;
    registries }

let find_row r name = List.find (fun a -> a.protocol = name) r.rows

let percentiles = [ 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ]

let mean_or_zero xs = if Array.length xs = 0 then 0.0 else Stats.mean xs

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Resilience under churn: %d scenarios x %d probed pairs, %.0f ms \
        window each.\n\
        Transient correctness of the data plane while converging \
        (paper Figs. 1/2).\n"
       r.scenarios r.pairs r.horizon);
  Buffer.add_string buf
    "  protocol  avail%  blackhole(ms)  loop(ms)  excused(ms)  \
     recovery(ms)  ttfc(ms)     msgs    lost\n";
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-8s  %6.2f  %13.1f  %8.1f  %11.1f  %12.1f  %8.1f  %7d  %6d\n"
           a.protocol
           (100.0 *. a.availability)
           a.blackhole_ms a.loop_ms a.unroutable_ms
           (mean_or_zero a.recovery) (mean_or_zero a.ttfc) a.messages
           a.losses))
    r.rows;
  Buffer.add_string buf
    "  Per-pair unavailability CDF (ms of blackhole+loop per probed \
     pair per scenario):\n  percentile";
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf " %12s" a.protocol))
    r.rows;
  Buffer.add_string buf "\n";
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "  %8.0f%% " p);
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf " %10.1fms"
               (if Array.length a.pair_unavail = 0 then 0.0
                else Stats.percentile a.pair_unavail p)))
        r.rows;
      Buffer.add_string buf "\n")
    percentiles;
  let centaur = find_row r "centaur" and bgp = find_row r "bgp" in
  Buffer.add_string buf
    (Printf.sprintf
       "  Centaur unavailable %.1f pair-ms vs BGP %.1f (%.1fx less): local \
        P-graph failover\n  closes the Figure 1/2 blackhole/loop windows \
        that BGP's path exploration leaves open.\n"
       centaur.unavailable_ms bgp.unavailable_ms
       (if centaur.unavailable_ms > 0.0 then
          bgp.unavailable_ms /. centaur.unavailable_ms
        else infinity));
  (* Opt-in blocks only: the default rendering stays byte-identical so
     baseline comparisons of `exp resilience` output keep holding. *)
  List.iter
    (fun (name, m) ->
      Buffer.add_string buf (Printf.sprintf "  metrics[%s]:\n" name);
      List.iter
        (fun line ->
          if line <> "" then Buffer.add_string buf ("    " ^ line ^ "\n"))
        (String.split_on_char '\n' (Obs.Metrics.render m)))
    r.registries;
  Buffer.contents buf
