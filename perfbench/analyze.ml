(* Static P-graph analysis: the `exp scale` 5k point, Tables 4/5 and
   Fig. 5. All work is in the solver, the static analysis and the pool;
   no engine or node runs. *)

let nodes = 5000
let sources = 40
let dests = 300
let setups = 31

let op =
  "one per-destination solver run: Static.analyze on a 5000-node CAIDA-like \
   graph with 40 sampled sources (a run per destination), then \
   Static.immediate_overhead over 300 sampled destinations"

(* What a pass computes on the fixed input, as [digest] prints it: the
   Table 4/5 statistics and the Fig. 5 totals. *)
let expected =
  "40 0x1.3e9f99999999ap+12 0x1.6f4cccccccccdp+7 3046 1187 706 2407 \
   0x1.9ec9b49644b8dp+5 2836793 111077"

type input = { topo : Topology.t; srcs : int list; ds : int list }

(* The graph and the sampled sources and destinations are fixed; the seed
   shuffles the order they are handed over in, which changes neither the
   work nor the result. *)
let setup ?(gen = Span.create ()) seed =
  let cfg =
    { Common.graph_cfg with Experiments.Config.as_nodes = nodes; as_sources = sources }
  in
  let topo = Span.time gen (fun () -> Experiments.Inputs.caida cfg) in
  let rng = Rng.create seed in
  { topo;
    srcs = Rng.shuffle_list rng (Experiments.Inputs.sample_sources cfg topo);
    ds = Rng.shuffle_list rng (Experiments.Inputs.sample_dests cfg topo ~count:dests) }

let digest (st : Centaur.Static.pgraph_stats) (ov : Centaur.Static.link_overhead array) =
  let bgp = Array.fold_left (fun a (o : Centaur.Static.link_overhead) -> a + o.bgp_units) 0 ov
  and cen =
    Array.fold_left (fun a (o : Centaur.Static.link_overhead) -> a + o.centaur_units) 0 ov
  in
  Printf.sprintf "%d %h %h %d %d %d %d %h %d %d" st.num_sources st.avg_links
    st.avg_plists st.entry_dist.one st.entry_dist.two st.entry_dist.three
    st.entry_dist.more st.avg_plist_compressed_bytes bgp cen

type pass = {
  digest : string;
  analyze_s : float;
  overhead_s : float;
  analyze_words : float;
  minor : float;
  major : float;
  units : int;  (* Fig. 5 immediate updates, BGP + Centaur *)
  wire_bytes : float;  (* P-graph wire size summed over sources *)
}

let pass ?metrics input =
  let m0, j0 = Common.words () in
  let st, analyze_s =
    Span.wall (fun () -> Centaur.Static.analyze ?metrics input.topo ~sources:input.srcs)
  in
  let m1, _ = Common.words () in
  let ov, overhead_s =
    Span.wall (fun () -> Centaur.Static.immediate_overhead ~dests:input.ds input.topo)
  in
  let m2, j2 = Common.words () in
  { digest = digest st ov;
    analyze_s;
    overhead_s;
    analyze_words = m1 -. m0;
    minor = m2 -. m0;
    major = j2 -. j0;
    units =
      Array.fold_left
        (fun a (o : Centaur.Static.link_overhead) -> a + o.bgp_units + o.centaur_units)
        0 ov;
    (* An 8-byte key per link plus the Bloom-compressed Permission Lists,
       as Announce.wire_bytes prices them. *)
    wire_bytes =
      float_of_int st.num_sources
      *. ((8.0 *. st.avg_links) +. (st.avg_plists *. st.avg_plist_compressed_bytes)) }

let run ~seed ~seconds ~traced =
  let gen = Span.create () in
  (* Set-up is about 10 ms: on a freshly compacted heap its page faults
     would swamp it, so the repeats share a warm heap. *)
  let input, setup_times =
    Common.repeat_setup ~compact:false (if traced then 1 else setups) (fun () ->
        setup ~gen seed)
  in
  let pass_ops = Topology.num_nodes input.topo + List.length input.ds in
  let metrics = Obs.Metrics.create () in
  let untraced = ref [] and traced_passes = ref [] in
  let passes = ref 0 and attempted = ref 0 and failed = ref 0 in
  let op_ms = Samples.create () in
  let attempt ?metrics keep =
    attempted := !attempted + pass_ops;
    match pass ?metrics input with
    | exception e when Common.diverged e -> failed := !failed + pass_ops
    | p -> keep p
  in
  Gc.compact ();
  let t_start = Span.now () in
  while !passes = 0 || Span.now () -. t_start < float_of_int seconds do
    incr passes;
    attempt (fun p ->
        untraced := p :: !untraced;
        Samples.add op_ms ((p.analyze_s +. p.overhead_s) *. 1e3 /. float_of_int pass_ops));
    if traced then attempt ~metrics (fun p -> traced_passes := p :: !traced_passes)
  done;
  (* Every pass must compute the recorded values. *)
  let wrong = List.filter (fun p -> p.digest <> expected) (!untraced @ !traced_passes) in
  failed := !failed + (List.length wrong * pass_ops);
  let check =
    match wrong with
    | [] -> "ok"
    | p :: _ -> Printf.sprintf "FAILED: expected %s, got %s" expected p.digest
  in
  let pops = float_of_int pass_ops in
  let counted f = match List.rev !untraced with p :: _ -> f p /. pops | [] -> 0.0 in
  let timed_ops = List.length !untraced * pass_ops in
  let m = Report.metric in
  let e2e () =
    let per_op ?(over = "counted op") name f = m name ~over ~n:pass_ops (counted f) in
    [ m "setup_s" ~over:"set-up (median)" ~n:(Samples.length setup_times)
        (Samples.median setup_times);
      m "ops_per_s" ~over:"timed pass (median)" ~n:(Samples.length op_ms)
        (Report.ratio 1e3 (Samples.median op_ms));
      m "op_ms_p50" ~over:"mean op time of one timed pass" ~n:(Samples.length op_ms)
        (Samples.percentile op_ms 50.0);
      m "op_ms_p90" ~over:"mean op time of one timed pass" ~n:(Samples.length op_ms)
        (Samples.percentile op_ms 90.0);
      per_op "minor_words_per_op" (fun p -> p.minor);
      per_op "major_words_per_op" (fun p -> p.major);
      m "peak_rss_mb" ~over:"process" ~n:1 (Common.peak_rss_mb ());
      per_op "msgs_per_op" ~over:"counted op (Fig. 5 immediate updates)" (fun p ->
          float_of_int p.units);
      per_op "bytes_per_op" ~over:"counted op (P-graph wire bytes)" (fun p -> p.wire_bytes) ]
  in
  let layers () =
    let tp = !traced_passes in
    let calls = List.length tp in
    let total f ps = List.fold_left (fun a p -> a +. f p) 0.0 ps in
    let per_call name x =
      m name ~over:"traced call" ~n:calls (Report.ratio x (float_of_int calls))
    in
    let counter name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter metrics name)) in
    let words = total (fun p -> p.analyze_words) tp in
    let wall ps =
      Report.ratio (total (fun p -> p.analyze_s +. p.overhead_s) ps)
        (float_of_int (List.length ps))
    in
    let dest_links = counter "static.dests" *. float_of_int (Topology.num_links input.topo) in
    Common.complete
      [ m "topogen.as_gen_s" ~over:"generated graph" ~n:(int_of_float gen.Span.calls)
          (Report.ratio gen.Span.secs gen.Span.calls);
        per_call "core.static.analyze_s" (total (fun p -> p.analyze_s) tp);
        per_call "core.static.immediate_overhead_s" (total (fun p -> p.overhead_s) tp);
        per_call "core.static.analyze_words" words;
        m "core.static.words_per_dest_link" ~over:"destination x link"
          ~n:(int_of_float dest_links) (Report.ratio words dest_links);
        per_call "core.static.dests" (counter "static.dests");
        per_call "core.static.paths" (counter "static.paths");
        m "obs.trace.overhead_ratio" ~over:"timed pass" ~n:calls
          (Report.ratio (wall !untraced) (wall tp)) ]
  in
  { Report.workload = "analyze";
    seed;
    traced;
    seconds;
    op;
    timed_ops;
    counted_ops = pass_ops;
    attempted = !attempted;
    failed = !failed;
    checks = [ ("recorded_pgraph_stats", check) ];
    metrics =
      (if traced then layers () else e2e ())
      @ [ m "fail_rate" ~over:"op attempted" ~n:!attempted
            (Report.ratio (float_of_int !failed) (float_of_int !attempted)) ] }
