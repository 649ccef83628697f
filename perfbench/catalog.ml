(* Every metric the benchmark prints, with its unit. An untraced run
   prints exactly [end_to_end] on its last line, a traced run exactly
   [per_layer]; every workload prints all of them (a layer a workload
   does not exercise reads 0). run.py fails a run whose last line does
   not carry exactly the names and units BENCHMARK.json declares. *)

let schema = "perfbench/1"

let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("minor_words_per_op", "words/op");
    ("major_words_per_op", "words/op");
    ("peak_rss_mb", "MB");
    ("msgs_per_op", "msgs/op");
    ("bytes_per_op", "B/op") ]

let protocols = [ "centaur_net"; "bgp_net"; "ospf_net" ]

let per_layer =
  List.concat_map
    (fun p ->
      [ ("protocols." ^ p ^ ".cold_start_s", "s");
        ("protocols." ^ p ^ ".flip_s", "s/op");
        ("protocols." ^ p ^ ".run_until_s", "s/op");
        ("protocols." ^ p ^ ".on_policy_change_s", "s/op");
        ("protocols." ^ p ^ ".next_hop_s", "s/op") ])
    protocols
  @ [ ("sim.runner.inject_s", "s/op");
      ("sim.runner.set_loss_s", "s/op");
      ("topogen.brite_s", "s");
      ("topogen.as_gen_s", "s");
      ("core.node.start_s", "s");
      ("core.node.absorb_s", "s/op");
      ("core.node.absorb_adjacency_s", "s/op");
      ("core.node.recompute_s", "s/op");
      ("core.node.absorb_calls", "count/op");
      ("core.node.recompute_calls", "count/op");
      ("core.node.recompute_dirty", "count/op");
      ("core.node.recompute_yield", "ratio");
      ("core.node.absorb_words", "words/op");
      ("core.node.recompute_words", "words/op");
      ("core.announce.wire_bytes_s", "s/op");
      ("sim.engine.self_s", "s/op");
      ("sim.engine.self_words", "words/op");
      ("sim.engine.events", "count/op");
      ("sim.engine.messages", "count/op");
      ("sim.engine.waves", "count/op");
      ("sim.engine.pending_max", "count");
      ("sim.engine.losses", "count/op");
      ("sim.engine.loss_ratio", "ratio");
      ("faults.observer.probe_s", "s/op");
      ("faults.observer.probes", "count/op");
      ("stream.replay.self_s", "s/op");
      ("stream.replay.queue_ms_p50", "ms");
      ("sim.delta_wave.waves", "count/op");
      ("sim.delta_wave.events", "count/op");
      ("sim.delta_wave.cancelled", "count/op");
      ("sim.delta_wave.cancel_ratio", "ratio");
      ("policy.rejects", "count");
      ("core.static.analyze_s", "s");
      ("core.static.immediate_overhead_s", "s");
      ("core.static.analyze_words", "words");
      ("core.static.words_per_dest_link", "words");
      ("core.static.dests", "count");
      ("core.static.paths", "count");
      ("obs.trace.overhead_ratio", "ratio") ]

(* End-to-end figures that can read 0 or have no meaning on some
   workload, so they stay out of the last line and appear only in the
   full report: the output-check failure rate (also the line's
   [failed]/[attempted]) and simulated convergence latency. *)
let report_only =
  [ ("fail_rate", "ratio"); ("sim_ms_p50", "ms"); ("sim_ms_p90", "ms") ]

let unit_of name =
  match
    List.find_map
      (List.assoc_opt name)
      [ end_to_end; per_layer; report_only ]
  with
  | Some u -> u
  | None -> invalid_arg ("Catalog.unit_of: unknown metric " ^ name)
