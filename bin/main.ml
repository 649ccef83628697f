(* centaur — command-line driver.

   Subcommands:
     exp <id>        regenerate one of the paper's tables/figures
     exp all         regenerate everything
     gen             generate a topology file
     routes          print a node's selected routes on a topology file
     pgraph          print a node's local P-graph
     simulate        flip a link and report convergence for one protocol
     policy          parse / validate / compile a policy configuration
     verify          certify convergence or extract a dispute wheel
     trace           pretty-print / check / digest a JSONL trace file *)

open Cmdliner

let read_topology path =
  match Topo_io.load path with
  | Ok topo -> topo
  | Error msg ->
    Printf.eprintf "error: cannot load %s: %s\n" path msg;
    exit 1

(* --- shared options --- *)

let seed_t =
  let doc = "Master PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_t =
  let doc = "Use the small smoke-test configuration." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let config_of ~seed ~quick =
  let base =
    if quick then Experiments.Config.quick else Experiments.Config.default
  in
  { base with Experiments.Config.seed }

(* A diverging protocol surfaces as a Cmdliner error carrying the raw
   processed-event total, the number of delta waves those events were
   coalesced into, and how much work was still queued when the budget
   ran out — under batching the event and wave counts diverge, and both
   matter for diagnosis. When the caller can name the topology/policy
   pair that diverged it passes [verdict], and the error additionally
   carries the convergence analyzer's diagnosis (a concrete dispute
   wheel, when one is found). *)
let or_diverged ?verdict f =
  match f () with
  | ok -> ok
  | exception Sim.Engine.Diverged { processed; pending; waves } ->
    let analysis =
      match verdict with
      | None -> ""
      | Some v ->
        let lines = String.split_on_char '\n' (String.trim (Lazy.force v)) in
        "\nanalyzer: " ^ String.concat "\nanalyzer: " lines
    in
    `Error
      ( false,
        Printf.sprintf
          "simulation diverged: event budget exhausted after %d events \
           seen (%d waves drained) with %d still pending — the protocol \
           is not converging%s"
          processed waves pending analysis )

(* --- exp --- *)

let exp_cmd =
  let id_t =
    let doc =
      "Experiment to run: " ^ String.concat ", " Experiments.Registry.ids
      ^ ", or 'all'."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let metrics_t =
    let doc =
      "Append the merged metrics registry to instrumented experiment output."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let trace_digest_t =
    let doc =
      "Run instrumented experiments with tracing enabled and write \
       per-run normalized trace digests to $(docv) (same seed, same \
       file, at any domain count)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-digest" ] ~docv:"FILE" ~doc)
  in
  let verify_t =
    let doc =
      "Pre-pass: run the convergence analyzer over the experiment input \
       topologies (under the default Gao-Rexford policy) and print one \
       verdict line per topology before the experiments."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run id seed quick metrics trace_digest verify =
    let cfg =
      { (config_of ~seed ~quick) with
        Experiments.Config.emit_metrics = metrics;
        trace_digest }
    in
    if verify then
      List.iter
        (fun (name, topo) ->
          let verdict = Verify.Dispute.analyze topo in
          let first =
            match
              String.split_on_char '\n' (Verify.Dispute.render verdict)
            with
            | l :: _ -> l
            | [] -> ""
          in
          Printf.printf "verify %-6s %s\n%!" name first)
        [ ("caida", Experiments.Inputs.caida cfg);
          ("hetop", Experiments.Inputs.hetop cfg);
          ("brite", Experiments.Inputs.brite cfg) ];
    let batch = Experiments.Registry.batch cfg in
    let run_one (e : Experiments.Registry.entry) =
      let t0 = Unix.gettimeofday () in
      Printf.printf "== %s: %s ==\n%!" e.Experiments.Registry.id
        e.Experiments.Registry.title;
      print_string (e.Experiments.Registry.run batch);
      print_newline ();
      (* Wall time is environment noise: stderr keeps stdout diffable. *)
      Printf.eprintf "(%s regenerated in %.1fs)\n%!" e.Experiments.Registry.id
        (Unix.gettimeofday () -. t0)
    in
    if id = "all" then
      or_diverged (fun () ->
          List.iter run_one Experiments.Registry.all;
          `Ok ())
    else
      match Experiments.Registry.find id with
      | Some e ->
        or_diverged (fun () ->
            run_one e;
            `Ok ())
      | None ->
        let available =
          List.map
            (fun (e : Experiments.Registry.entry) ->
              Printf.sprintf "  %-12s %s" e.Experiments.Registry.id
                e.Experiments.Registry.title)
            Experiments.Registry.all
          @ [ "  all          every experiment above" ]
        in
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; available:\n%s" id
              (String.concat "\n" available) )
  in
  let doc = "Regenerate a table or figure from the paper's evaluation." in
  Cmd.v
    (Cmd.info "exp" ~doc)
    Term.(
      ret
        (const run $ id_t $ seed_t $ quick_t $ metrics_t $ trace_digest_t
        $ verify_t))

(* --- gen --- *)

let gen_cmd =
  let kind_t =
    let doc = "Topology model: caida, hetop, or brite." in
    Arg.(value & opt string "brite" & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let nodes_t =
    let doc = "Number of nodes." in
    Arg.(value & opt int 500 & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let out_t =
    let doc = "Output file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run model n out seed =
    let rng = Rng.create seed in
    let generate () =
      match model with
      | "caida" -> Some (As_gen.generate rng (As_gen.caida_like ~n))
      | "hetop" -> Some (As_gen.generate rng (As_gen.hetop_like ~n))
      | "brite" ->
        Some (Brite.annotated rng ~n ~m:2 ~max_delay:5.0 ~num_tiers:4)
      | _ -> None
    in
    (* The generators reject sizes their model cannot build. *)
    match generate () with
    | exception Invalid_argument msg ->
      `Error
        ( false,
          Printf.sprintf "cannot generate a %d-node %s topology: %s" n model msg )
    | None ->
      `Error (false, Printf.sprintf "unknown model %S (caida|hetop|brite)" model)
    | Some topo ->
      Format.eprintf "generated: %a@." Topology.pp_summary topo;
      (match out with
      | None -> print_string (Topo_io.to_string topo)
      | Some path -> Topo_io.save topo path);
      `Ok ()
  in
  let doc = "Generate an annotated topology file." in
  Cmd.v
    (Cmd.info "gen" ~doc)
    Term.(ret (const run $ kind_t $ nodes_t $ out_t $ seed_t))

(* --- import --- *)

let import_cmd =
  let in_t =
    let doc = "CAIDA as-rel file (provider|customer|-1, peer|peer|0)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"AS-REL" ~doc)
  in
  let out_t =
    let doc = "Output topology file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run path out seed =
    match As_rel.load ~seed path with
    | Error msg -> `Error (false, Printf.sprintf "cannot import %s: %s" path msg)
    | Ok (topo, _mapping) ->
      Format.eprintf "imported: %a@." Topology.pp_summary topo;
      (match out with
      | None -> print_string (Topo_io.to_string topo)
      | Some path -> Topo_io.save topo path);
      `Ok ()
  in
  let doc = "Convert a CAIDA as-rel dataset into a topology file." in
  Cmd.v
    (Cmd.info "import" ~doc)
    Term.(ret (const run $ in_t $ out_t $ seed_t))

(* --- routes --- *)

let topo_pos_t =
  let doc = "Topology file (produced by $(b,gen))." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TOPOLOGY" ~doc)

(* A topology file and one of its node ids, range-checked on load. *)
let topo_node_t =
  let node_t =
    let doc = "Node id." in
    Arg.(value & opt int 0 & info [ "node" ] ~docv:"NODE" ~doc)
  in
  let load path node =
    let topo = read_topology path in
    if node < 0 || node >= Topology.num_nodes topo then begin
      Printf.eprintf "error: node %d out of range\n" node;
      exit 1
    end;
    (topo, node)
  in
  Term.(const load $ topo_pos_t $ node_t)

let routes_cmd =
  let run (topo, node) =
    let paths = Solver.path_set_from topo ~src:node in
    Printf.printf "# %d selected routes of node %d\n" (List.length paths) node;
    List.iter
      (fun p ->
        let cls =
          match Path_class.class_of topo p with
          | Some c -> Gao_rexford.class_to_string c
          | None -> "?"
        in
        Printf.printf "%-6d %-16s %s\n" (Path.destination p) cls
          (Path.to_string p))
      paths
  in
  let doc = "Print a node's selected Gao-Rexford routes." in
  Cmd.v (Cmd.info "routes" ~doc) Term.(const run $ topo_node_t)

(* --- pgraph --- *)

let pgraph_cmd =
  let run (topo, node) =
    let g = Centaur.Static.pgraph_of_source topo ~src:node in
    Format.printf "%a@." Centaur.Pgraph.pp g;
    Printf.printf "links: %d, permission lists: %d\n"
      (Centaur.Pgraph.num_links g)
      (Centaur.Pgraph.num_permission_lists g)
  in
  let doc = "Print a node's local P-graph (links, counters, Permission Lists)." in
  Cmd.v (Cmd.info "pgraph" ~doc) Term.(const run $ topo_node_t)

(* --- simulate --- *)

(* Protocol constructors come from the shared {!Protocols.Proto_table};
   the policy knob below plumbs through it once for every protocol. *)

let policy_file_t =
  let doc =
    "Policy configuration file (the DSL of the README's Policies \
     section); every node shares the compiled policy. Omitted: plain \
     Gao-Rexford."
  in
  Arg.(value & opt (some file) None & info [ "policy" ] ~docv:"FILE" ~doc)

(* Parse + validate + compile a policy file, or die with the parser's
   stable one-line error. *)
let load_policy ~num_nodes = function
  | None -> Ok (Policy.default ())
  | Some path -> (
    match Policy.parse_file path with
    | Error msg -> Error msg
    | Ok config -> Policy.compile ~num_nodes config)

let simulate_cmd =
  let proto_t =
    let doc =
      "Protocol: " ^ String.concat ", " Protocols.Proto_table.names ^ "."
    in
    Arg.(value & opt string "centaur" & info [ "protocol" ] ~docv:"PROTO" ~doc)
  in
  let link_t =
    let doc = "Link id to flip (down then up)." in
    Arg.(value & opt int 0 & info [ "link" ] ~docv:"LINK" ~doc)
  in
  let trace_out_t =
    let doc = "Write the run's event trace to $(docv) as JSON Lines." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let check_t =
    let doc =
      "Replay the run's trace through the invariant checker; any \
       violation fails the command."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let metrics_t =
    let doc = "Print the runner's metrics registry after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let stream_t =
    let doc =
      "Replay a seeded synthetic update stream at $(docv) arrivals/ms \
       (link flaps, policy flips, loss windows) instead of flipping one \
       link."
    in
    Arg.(value & opt (some float) None & info [ "stream" ] ~docv:"RATE" ~doc)
  in
  let stream_duration_t =
    let doc = "Stream arrival window, in simulated ms." in
    Arg.(
      value & opt float 300.0 & info [ "stream-duration" ] ~docv:"MS" ~doc)
  in
  let window_t =
    let doc =
      "Delta-wave batching window, ms: each window of stream events \
       coalesces into one wave. 0 replays event-at-a-time."
    in
    Arg.(value & opt float 8.0 & info [ "window" ] ~docv:"MS" ~doc)
  in
  let verify_t =
    let doc =
      "Pre-pass: print the convergence analyzer's verdict on the \
       topology + policy before running (certificate, dispute wheel, \
       or inconclusive). Advisory — the run proceeds either way."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run path proto link trace_out check metrics policy_file
      stream_rate stream_duration window verify seed =
    let topo = read_topology path in
    match Protocols.Proto_table.find proto with
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown protocol %S; available: %s" proto
            (String.concat ", " Protocols.Proto_table.names) )
    | Some network -> (
      match load_policy ~num_nodes:(Topology.num_nodes topo) policy_file with
      | Error msg -> `Error (false, msg)
      | Ok policy ->
      (* Lazy: the analyzer only runs when the pre-pass asks for it or a
         diverging run needs the diagnosis. *)
      let verdict =
        lazy (Verify.Dispute.render (Verify.Dispute.analyze ~policy topo))
      in
      if verify then print_string (Lazy.force verdict);
      let trace =
        if trace_out <> None || check then
          Obs.Trace.create ~capacity:1_000_000 ()
        else Obs.Trace.none
      in
      let runner = network ~trace ~policy topo in
      let report label (s : Sim.Engine.run_stats) =
        Printf.printf
          "%-10s time=%8.2fms messages=%7d units=%8d bytes=%9d \
           lost=%5d events=%d waves=%d\n"
          label s.Sim.Engine.duration s.Sim.Engine.messages
          s.Sim.Engine.units s.Sim.Engine.bytes s.Sim.Engine.losses
          s.Sim.Engine.events s.Sim.Engine.waves
      in
      let finish () =
        (match trace_out with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          Obs.Trace.write_jsonl oc trace;
          close_out oc;
          Printf.printf "trace: %d events -> %s%s\n" (Obs.Trace.length trace)
            file
            (let d = Obs.Trace.dropped trace in
             if d = 0 then "" else Printf.sprintf " (%d dropped)" d));
        if check then begin
          let report = Obs.Check.run trace in
          print_string (Obs.Check.render report);
          if Obs.Check.ok report then `Ok ()
          else `Error (false, "trace invariant check failed")
        end
        else `Ok ()
      in
      match stream_rate with
      | Some rate ->
        or_diverged ~verdict (fun () ->
            let mode =
              if window <= 0.0 then Stream.Replay.Event_at_a_time
              else Stream.Replay.Waves window
            in
            let reg = Obs.Metrics.create () in
            (* The generator rejects a rate or duration it cannot run,
               and the replay a window, before the runner starts. *)
            match
              let stream =
                Stream.Update_stream.generate ~seed ~rate
                  ~duration:stream_duration ~policy_share:0.15
                  ~loss_share:0.1 topo
              in
              Stream.Replay.replay ~metrics:reg ~policy ~topo ~stream ~mode
                runner
            with
            | exception Invalid_argument msg -> `Error (false, msg)
            | o ->
              Printf.printf "stream     seed=%d rate=%.2f/ms duration=%.0fms %s\n"
                seed rate stream_duration
                (match mode with
                | Stream.Replay.Event_at_a_time -> "event-at-a-time"
                | Stream.Replay.Waves w -> Printf.sprintf "window=%.1fms" w);
              Printf.printf
                "stream     events seen=%d waves drained=%d coalesced=%d\n"
                o.Stream.Replay.events o.Stream.Replay.waves
                o.Stream.Replay.cancelled;
              let pct p =
                if Array.length o.Stream.Replay.latencies = 0 then 0.0
                else Stats.percentile o.Stream.Replay.latencies p
              in
              Printf.printf
                "latency    p50=%.1fms p99=%.1fms p999=%.1fms makespan=%.1fms\n"
                (pct 50.0) (pct 99.0) (pct 99.9) o.Stream.Replay.makespan;
              report "converge" o.Stream.Replay.stats;
              if metrics then print_string (Obs.Metrics.render reg);
              finish ())
      | None ->
        if link < 0 || link >= Topology.num_links topo then
          `Error (false, Printf.sprintf "link %d out of range" link)
        else
          or_diverged ~verdict (fun () ->
              report "cold" (runner.Sim.Runner.cold_start ());
              report "link down"
                (runner.Sim.Runner.flip ~link_id:link ~up:false);
              report "link up" (runner.Sim.Runner.flip ~link_id:link ~up:true);
              if metrics then
                print_string (Obs.Metrics.render runner.Sim.Runner.metrics);
              finish ()))
  in
  let doc =
    "Cold-start a protocol on a topology, then flip one link or replay \
     an update stream."
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run $ topo_pos_t $ proto_t $ link_t $ trace_out_t $ check_t
        $ metrics_t $ policy_file_t $ stream_t
        $ stream_duration_t $ window_t $ verify_t $ seed_t))

(* --- policy --- *)

let policy_cmd =
  let file_t =
    let doc = "Policy configuration file to check." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let action_t =
    let doc = "Action: only $(b,check) is defined." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION" ~doc)
  in
  let nodes_t =
    let doc =
      "Validate node/destination ids against this topology size \
       (0 disables the range check)."
    in
    Arg.(value & opt int 0 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let run action file nodes =
    if action <> "check" then
      `Error (false, Printf.sprintf "unknown action %S (try: check)" action)
    else begin
      (* Errors go to stdout with exit 1 so the CI corpus check can diff
         them against committed .expect files. *)
      let num_nodes = if nodes > 0 then Some nodes else None in
      let compiled =
        match Policy.parse_file file with
        | Error msg -> Error msg
        | Ok config -> Policy.compile ?num_nodes config
      in
      match compiled with
      | Error msg ->
        print_endline msg;
        exit 1
      | Ok compiled ->
        Printf.printf "ok: %s\n" (Policy.summary compiled);
        `Ok ()
    end
  in
  let doc = "Parse, validate and compile a policy configuration." in
  Cmd.v
    (Cmd.info "policy" ~doc)
    Term.(ret (const run $ action_t $ file_t $ nodes_t))

(* --- verify --- *)

let verify_cmd =
  let discipline_t =
    let doc =
      "Path-selection discipline: standard, class-only, diverse, or \
       arbitrary."
    in
    Arg.(
      value & opt string "standard" & info [ "discipline" ] ~docv:"D" ~doc)
  in
  let run path policy_file discipline =
    let discipline =
      match discipline with
      | "standard" -> Some Gao_rexford.Standard
      | "class-only" -> Some Gao_rexford.Class_only
      | "diverse" -> Some Gao_rexford.Diverse
      | "arbitrary" -> Some Gao_rexford.Arbitrary
      | _ -> None
    in
    match discipline with
    | None ->
      `Error
        ( false,
          "unknown discipline (standard|class-only|diverse|arbitrary)" )
    | Some discipline -> (
      let topo = read_topology path in
      match load_policy ~num_nodes:(Topology.num_nodes topo) policy_file with
      | Error msg ->
        (* Stdout + exit 1, like `policy check`: the corpus gate diffs
           this output against committed .expect files. *)
        print_endline msg;
        exit 1
      | Ok policy ->
        let verdict = Verify.Dispute.analyze ~discipline ~policy topo in
        print_string (Verify.Dispute.render verdict);
        (match verdict with
        | Verify.Dispute.Certified _ -> ()
        | Verify.Dispute.Wheel _ -> exit 1
        | Verify.Dispute.Inconclusive _ -> exit 2);
        `Ok ())
  in
  let doc =
    "Certify that a topology + policy converges under every schedule, \
     or extract a concrete dispute wheel (exit 0 certified, 1 wheel \
     or bad policy file, 2 inconclusive)."
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(ret (const run $ topo_pos_t $ policy_file_t $ discipline_t))

(* --- trace --- *)

let trace_cmd =
  let file_t =
    let doc = "JSONL trace file (produced by $(b,simulate --trace))." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let check_t =
    let doc = "Run the invariant checker instead of pretty-printing." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let digest_t =
    let doc = "Print the normalized (timestamp-free) digest instead." in
    Arg.(value & flag & info [ "digest" ] ~doc)
  in
  let load_events file =
    let ic = open_in file in
    let evs = ref [] in
    let malformed = ref 0 in
    (try
       let lineno = ref 0 in
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then
           match Obs.Trace.event_of_json line with
           | Some ev -> evs := ev :: !evs
           | None -> incr malformed
       done
     with End_of_file -> ());
    close_in ic;
    (Array.of_list (List.rev !evs), !malformed)
  in
  let run file check digest =
    let evs, malformed = load_events file in
    if malformed > 0 then
      `Error
        (false, Printf.sprintf "%s: %d malformed trace lines" file malformed)
    else if digest then begin
      print_string (Obs.Trace.digest_events evs);
      `Ok ()
    end
    else if check then begin
      let report = Obs.Check.run_events evs in
      print_string (Obs.Check.render report);
      if Obs.Check.ok report then `Ok ()
      else `Error (false, "trace invariant check failed")
    end
    else begin
      Array.iter (Format.printf "%a@." Obs.Trace.pp_event) evs;
      `Ok ()
    end
  in
  let doc = "Pretty-print, check or digest a JSONL event trace." in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(ret (const run $ file_t $ check_t $ digest_t))

let main_cmd =
  let doc = "Centaur: hybrid policy-based routing (ICDCS 2009) reproduction" in
  let info = Cmd.info "centaur" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ exp_cmd; gen_cmd; import_cmd; routes_cmd; pgraph_cmd; simulate_cmd;
      policy_cmd; verify_cmd; trace_cmd ]

let () = exit (Cmd.eval main_cmd)
