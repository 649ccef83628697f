(* Sustained-churn throughput: the experiment the delta-wave refactor
   exists for. Each cell replays one seeded update stream (link flaps +
   policy flips + loss windows at a fixed offered load) against one
   protocol, either event-at-a-time (the PR-2 ingestion baseline) or in
   batched delta waves, and records what the batching buys (coalesced
   work, wall-clock throughput) and what it costs (per-update
   enqueue->stable latency, which now includes the window's queueing
   delay). *)

let policy_share = 0.15

let loss_share = 0.1

let protocols = [ "centaur"; "bgp"; "ospf" ]

type cell = {
  protocol : string;
  rate : float;        (* offered load, stream arrivals/ms *)
  batched : bool;      (* delta waves vs event-at-a-time *)
  events : int;
  waves : int;         (* applications drained *)
  cancelled : int;     (* link events coalesced away *)
  messages : int;
  units : int;
  p50 : float;         (* enqueue->stable latency percentiles, sim ms *)
  p99 : float;
  p999 : float;
  makespan : float;    (* sim ms from first arrival to last stable *)
  wall_ns : int;       (* replay wall time, environment-dependent *)
}

type result = {
  window : float;
  duration : float;
  cells : cell list;   (* rate-major; per rate: protocol order, waves
                          before event-at-a-time *)
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* One replay on private instances: the engine mutates the topology and
   the compiled policy, so every cell builds its own. The stream depends
   only on (seed, rate, topology), so the waves and event cells of one
   (rate, protocol) pair replay byte-identical events. *)
let run_cell cfg ~rate_idx ~rate ~protocol ~batched =
  let topo = Inputs.brite cfg in
  let policy = Policy.default () in
  let make = Option.get (Protocols.Proto_table.find protocol) in
  let runner = make ~policy topo in
  let stream =
    Stream.Update_stream.generate
      ~seed:((cfg.Config.seed * 1_000_003) + 11_000 + rate_idx)
      ~rate ~duration:cfg.Config.churn_duration ~policy_share ~loss_share topo
  in
  let mode =
    if batched then Stream.Replay.Waves cfg.Config.churn_window
    else Stream.Replay.Event_at_a_time
  in
  let t0 = now_ns () in
  let o = Stream.Replay.replay ~policy ~topo ~stream ~mode runner in
  let wall_ns = now_ns () - t0 in
  let pct p =
    if Array.length o.Stream.Replay.latencies = 0 then 0.0
    else Stats.percentile o.Stream.Replay.latencies p
  in
  { protocol;
    rate;
    batched;
    events = o.Stream.Replay.events;
    waves = o.Stream.Replay.waves;
    cancelled = o.Stream.Replay.cancelled;
    messages = o.Stream.Replay.stats.Sim.Engine.messages;
    units = o.Stream.Replay.stats.Sim.Engine.units;
    p50 = pct 50.0;
    p99 = pct 99.0;
    p999 = pct 99.9;
    makespan = o.Stream.Replay.makespan;
    wall_ns }

let run cfg =
  let items =
    List.concat_map
      (fun (rate_idx, rate) ->
        List.concat_map
          (fun protocol ->
            [ (rate_idx, rate, protocol, true);
              (rate_idx, rate, protocol, false) ])
          protocols)
      (List.mapi (fun i r -> (i, r)) cfg.Config.churn_rates)
  in
  let cells =
    Pool.parallel_map_array
      (fun (rate_idx, rate, protocol, batched) ->
        run_cell cfg ~rate_idx ~rate ~protocol ~batched)
      (Array.of_list items)
  in
  { window = cfg.Config.churn_window;
    duration = cfg.Config.churn_duration;
    cells = Array.to_list cells }

let mode_name batched = if batched then "waves" else "event"

(* Deterministic in the seed: everything here is sim-time or counted
   work, so CI can diff this table across reruns and domain counts. *)
let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Churn streaming: sustained update load, batched delta waves \
        (w=%.0f ms) vs\nevent-at-a-time, %.0f ms arrival window per \
        replay (latencies are sim-time\nenqueue->stable, so waves pay \
        their queueing delay here).\n"
       r.window r.duration);
  Buffer.add_string buf
    "  rate(/ms)  protocol  mode    events  waves  coalesced  p50(ms)  \
     p99(ms)  p999(ms)  makespan(ms)     msgs\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %9.2f  %-8s  %-6s  %6d  %5d  %9d  %7.1f  %7.1f  %8.1f  \
            %12.1f  %7d\n"
           c.rate c.protocol (mode_name c.batched) c.events c.waves
           c.cancelled c.p50 c.p99 c.p999 c.makespan c.messages))
    r.cells;
  Buffer.add_string buf
    "\n(wall-clock throughput is environment-dependent; `exp churnrate` \
     prints\n it to stderr and `bench churn` records it in \
     BENCH_RESULTS.json)\n";
  Buffer.contents buf

let throughput c =
  if c.wall_ns = 0 then infinity
  else float_of_int c.events /. (float_of_int c.wall_ns /. 1e9)

let find_cell r ~rate ~protocol ~batched =
  List.find
    (fun c -> c.rate = rate && c.protocol = protocol && c.batched = batched)
    r.cells

let render_timing r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "  rate(/ms)  protocol     waves-upd/s     event-upd/s  speedup\n";
  List.iter
    (fun c ->
      if c.batched then begin
        let e = find_cell r ~rate:c.rate ~protocol:c.protocol ~batched:false in
        Buffer.add_string buf
          (Printf.sprintf "  %9.2f  %-8s  %14.0f  %14.0f  %6.2fx\n" c.rate
             c.protocol (throughput c) (throughput e)
             (float_of_int e.wall_ns /. float_of_int (max 1 c.wall_ns)))
      end)
    r.cells;
  Buffer.contents buf
