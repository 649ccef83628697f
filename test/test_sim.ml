(* Discrete-event engine: delivery order and delays, link-state drops,
   timers, counters, divergence guard. *)

type probe = { payload : int }

let line_topo delays =
  (* 0 - 1 - 2 ... with given per-link delays. *)
  Topology.create ~n:(List.length delays + 1)
    (List.mapi (fun i d -> (i, i + 1, Relationship.Peer, d)) delays)

let engine_with ~topo ~log ?(units = fun _ -> 1) ?(forward = true) () =
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now ~node ~src msg ->
          log := (now, node, src, msg.payload) :: !log;
          (* Forward down the line once. *)
          if forward && node + 1 < Topology.num_nodes topo then
            [ Sim.Engine.Send (node + 1, msg) ]
          else []);
      Sim.Engine.on_link_change =
        (fun ~now ~node ~link_id ->
          log := (now, node, -1, -link_id - 1) :: !log;
          []);
      Sim.Engine.on_timer = Sim.Engine.no_timers;
      Sim.Engine.on_batch_end = Sim.Engine.no_batching }
  in
  Sim.Engine.create topo ~units ~handlers

let test_delays_accumulate () =
  let topo = line_topo [ 2.0; 3.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log () in
  let since = Sim.Engine.mark e in
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (1, { payload = 7 }) ];
  let stats = Sim.Engine.run_to_quiescence ~since e in
  (match List.rev !log with
  | [ (t1, 1, 0, 7); (t2, 2, 1, 7) ] ->
    Alcotest.(check (float 1e-9)) "first hop at 2ms" 2.0 t1;
    Alcotest.(check (float 1e-9)) "second hop at 5ms" 5.0 t2
  | _ -> Alcotest.fail "unexpected delivery log");
  Alcotest.(check (float 1e-9)) "duration" 5.0 stats.Sim.Engine.duration;
  Alcotest.(check int) "messages" 2 stats.Sim.Engine.messages;
  Alcotest.(check int) "deliveries" 2 stats.Sim.Engine.deliveries

let test_send_to_nonneighbor_dropped () =
  let topo = line_topo [ 1.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log () in
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (9, { payload = 1 }) ];
  let stats = Sim.Engine.run_to_quiescence e in
  Alcotest.(check int) "nothing sent" 0 stats.Sim.Engine.messages

let test_send_over_down_link_dropped () =
  let topo = line_topo [ 1.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log () in
  Topology.set_up topo 0 false;
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (1, { payload = 1 }) ];
  let stats = Sim.Engine.run_to_quiescence e in
  Alcotest.(check int) "session gone" 0 stats.Sim.Engine.messages

let test_in_flight_loss () =
  (* A message in flight when its link dies is lost. *)
  let topo = line_topo [ 5.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log () in
  let since = Sim.Engine.mark e in
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (1, { payload = 42 }) ];
  (* The flip is scheduled at t=0, before the t=5 delivery. *)
  Sim.Engine.flip_link e ~link_id:0 ~up:false;
  let stats = Sim.Engine.run_to_quiescence ~since e in
  Alcotest.(check int) "sent but lost" 1 stats.Sim.Engine.messages;
  Alcotest.(check int) "not delivered" 0 stats.Sim.Engine.deliveries;
  Alcotest.(check int) "counted as lost" 1 stats.Sim.Engine.losses;
  (* Only the two link notifications reached handlers. *)
  Alcotest.(check int) "two notifications" 2 (List.length !log)

let test_link_change_notifies_both_endpoints () =
  let topo = line_topo [ 1.0; 1.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log () in
  Sim.Engine.flip_link e ~link_id:1 ~up:false;
  ignore (Sim.Engine.run_to_quiescence e);
  let notified =
    List.filter_map
      (fun (_, node, src, _) -> if src = -1 then Some node else None)
      !log
    |> List.sort compare
  in
  Alcotest.(check (list int)) "both endpoints" [ 1; 2 ] notified

let test_units_accounting () =
  let topo = line_topo [ 1.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log ~units:(fun m -> m.payload) ~forward:false () in
  let since = Sim.Engine.mark e in
  Sim.Engine.perform e ~node:0
    [ Sim.Engine.Send (1, { payload = 10 }); Sim.Engine.Send (1, { payload = 5 }) ];
  let stats = Sim.Engine.run_to_quiescence ~since e in
  Alcotest.(check int) "unit sum" 15 stats.Sim.Engine.units;
  Alcotest.(check int) "messages" 2 stats.Sim.Engine.messages

let test_timers_fire_in_order () =
  let topo = line_topo [ 1.0 ] in
  let fired = ref [] in
  let handlers =
    { Sim.Engine.on_message = (fun ~now:_ ~node:_ ~src:_ _ -> []);
      Sim.Engine.on_link_change = (fun ~now:_ ~node:_ ~link_id:_ -> []);
      Sim.Engine.on_timer =
        (fun ~now ~node:_ ~key ->
          fired := (now, key) :: !fired;
          []);
      Sim.Engine.on_batch_end = Sim.Engine.no_batching }
  in
  let e = Sim.Engine.create topo ~units:(fun _ -> 1) ~handlers in
  Sim.Engine.perform e ~node:0
    [ Sim.Engine.Timer (5.0, 2); Sim.Engine.Timer (1.0, 1) ];
  ignore (Sim.Engine.run_to_quiescence e);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "time order" [ (1.0, 1); (5.0, 2) ] (List.rev !fired)

let test_divergence_guard () =
  (* A protocol that replies forever must trip the event budget. *)
  let topo = line_topo [ 1.0 ] in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node:_ ~src msg -> [ Sim.Engine.Send (src, msg) ]);
      Sim.Engine.on_link_change = (fun ~now:_ ~node:_ ~link_id:_ -> []);
      Sim.Engine.on_timer = Sim.Engine.no_timers;
      Sim.Engine.on_batch_end = Sim.Engine.no_batching }
  in
  let e = Sim.Engine.create topo ~units:(fun _ -> 1) ~handlers in
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (1, { payload = 0 }) ];
  match Sim.Engine.run_to_quiescence ~max_events:100 e with
  | exception Sim.Engine.Diverged { processed; pending; _ } ->
    Alcotest.(check int) "processed the budget" 100 processed;
    (* The event that hit the budget is still queued, not dropped. *)
    Alcotest.(check int) "pending = events still queued" pending
      (Sim.Engine.pending_events e)
  | _ -> Alcotest.fail "divergence not detected"

let test_mark_spans_initial_sends () =
  let topo = line_topo [ 1.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log ~forward:false () in
  let since = Sim.Engine.mark e in
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (1, { payload = 1 }) ];
  let stats = Sim.Engine.run_to_quiescence ~since e in
  Alcotest.(check int) "initial send counted" 1 stats.Sim.Engine.messages

let test_probabilistic_loss () =
  (* Rate 1.0 loses everything; rate 0.0 loses nothing; the draws come
     from the seeded stream so equal seeds lose identical messages. *)
  let run_with ~rate ~seed =
    let topo = line_topo [ 1.0 ] in
    let log = ref [] in
    let e = engine_with ~topo ~log ~forward:false () in
    Sim.Engine.seed_loss e seed;
    Sim.Engine.set_loss e ~link_id:0 ~rate;
    let since = Sim.Engine.mark e in
    Sim.Engine.perform e ~node:0
      (List.init 40 (fun i -> Sim.Engine.Send (1, { payload = i })));
    Sim.Engine.run_to_quiescence ~since e
  in
  let all = run_with ~rate:1.0 ~seed:1 in
  Alcotest.(check int) "rate 1: all lost" 40 all.Sim.Engine.losses;
  Alcotest.(check int) "rate 1: none delivered" 0 all.Sim.Engine.deliveries;
  let none = run_with ~rate:0.0 ~seed:1 in
  Alcotest.(check int) "rate 0: none lost" 0 none.Sim.Engine.losses;
  let a = run_with ~rate:0.5 ~seed:9 and b = run_with ~rate:0.5 ~seed:9 in
  Alcotest.(check int) "seeded loss deterministic" a.Sim.Engine.losses
    b.Sim.Engine.losses;
  Alcotest.(check bool) "rate 0.5 loses some" true (a.Sim.Engine.losses > 0);
  Alcotest.(check bool) "rate 0.5 delivers some" true
    (a.Sim.Engine.deliveries > 0)

let test_run_until_pauses_and_resumes () =
  let topo = line_topo [ 2.0; 3.0 ] in
  let log = ref [] in
  let e = engine_with ~topo ~log () in
  let since = Sim.Engine.mark e in
  Sim.Engine.perform e ~node:0 [ Sim.Engine.Send (1, { payload = 7 }) ];
  let first = Sim.Engine.run_until ~since e 2.5 in
  Alcotest.(check int) "one delivery so far" 1 first.Sim.Engine.deliveries;
  Alcotest.(check int) "one event pending" 1 (Sim.Engine.pending_events e);
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.5 (Sim.Engine.now e);
  Alcotest.(check (float 1e-9)) "duration to horizon" 2.5
    first.Sim.Engine.duration;
  let rest = Sim.Engine.run_to_quiescence e in
  Alcotest.(check int) "second delivery" 1 rest.Sim.Engine.deliveries;
  Alcotest.(check int) "quiescent" 0 (Sim.Engine.pending_events e);
  Alcotest.(check (float 1e-9)) "final clock" 5.0 (Sim.Engine.now e)

let test_batch_end_per_burst () =
  (* All deliveries hitting one node at one timestamp form a single
     batch: on_batch_end runs once after the burst, and again for a
     later lone delivery. *)
  let topo = line_topo [ 1.0; 2.0 ] in
  let batches = ref [] and delivered = ref 0 in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node:_ ~src:_ _ ->
          incr delivered;
          []);
      Sim.Engine.on_link_change = (fun ~now:_ ~node:_ ~link_id:_ -> []);
      Sim.Engine.on_timer = Sim.Engine.no_timers;
      Sim.Engine.on_batch_end =
        (fun ~now ~node ->
          batches := (now, node, !delivered) :: !batches;
          []) }
  in
  let e = Sim.Engine.create topo ~units:(fun _ -> 1) ~handlers in
  (* Two messages reach node 1 at t=1 (one burst), a third at t=2. *)
  Sim.Engine.perform e ~node:0
    [ Sim.Engine.Send (1, { payload = 1 }); Sim.Engine.Send (1, { payload = 2 }) ];
  Sim.Engine.perform e ~node:2 [ Sim.Engine.Send (1, { payload = 3 }) ];
  ignore (Sim.Engine.run_to_quiescence e);
  Alcotest.(check (list (triple (float 1e-9) int int)))
    "one batch end per (time, node) burst"
    [ (1.0, 1, 2); (2.0, 1, 3) ]
    (List.rev !batches)

let test_batch_survives_run_until_split () =
  (* Splitting a run at an arbitrary horizon must not change how bursts
     are batched: a horizon beyond the burst's timestamp keeps it whole. *)
  let run split =
    let topo = line_topo [ 1.0; 2.0 ] in
    let batches = ref [] in
    let handlers =
      { Sim.Engine.on_message = (fun ~now:_ ~node:_ ~src:_ _ -> []);
        Sim.Engine.on_link_change = (fun ~now:_ ~node:_ ~link_id:_ -> []);
        Sim.Engine.on_timer = Sim.Engine.no_timers;
        Sim.Engine.on_batch_end =
          (fun ~now ~node ->
            batches := (now, node) :: !batches;
            []) }
    in
    let e = Sim.Engine.create topo ~units:(fun _ -> 1) ~handlers in
    Sim.Engine.perform e ~node:0
      [ Sim.Engine.Send (1, { payload = 1 });
        Sim.Engine.Send (1, { payload = 2 }) ];
    Sim.Engine.perform e ~node:2 [ Sim.Engine.Send (1, { payload = 3 }) ];
    if split then ignore (Sim.Engine.run_until e 1.5);
    ignore (Sim.Engine.run_to_quiescence e);
    List.rev !batches
  in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "same batching split or not" (run false) (run true)

(* Delivery order on random small graphs with delays 1 and 2, so many
   deliveries fall due at the same time. Every send carries a global
   sequence number taken when its handler returns it, which is the order
   the engine schedules sends in. Deliveries must run in time order and,
   at equal times, in send order; [on_batch_end] must run exactly once
   after each maximal run of deliveries to one node at one time. *)
type tagged = { seq : int; ttl : int }

type logged = Delivered of float * int * int | Batch_end of float * int

let engine_order_qcheck =
  QCheck.Test.make
    ~name:"equal-time deliveries in send order, one batch end per burst"
    ~count:(Helpers.qcheck_count 200)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 7 in
      let topo =
        Helpers.random_connected ~seed ~n ~extra:n ~delays:[| 1.0; 2.0 |]
      in
      let next_seq = ref 0 in
      (* A message with a fresh sequence number to each neighbor that a
         coin flip picks, in neighbor order. *)
      let sends node ttl =
        Topology.fold_neighbors topo node ~init:[] ~f:(fun acc nb _ _ ->
            if Rng.bool rng then begin
              let m = { seq = !next_seq; ttl } in
              incr next_seq;
              Sim.Engine.Send (nb, m) :: acc
            end
            else acc)
        |> List.rev
      in
      let log = ref [] in
      let handlers =
        { Sim.Engine.on_message =
            (fun ~now ~node ~src:_ m ->
              log := Delivered (now, node, m.seq) :: !log;
              if m.ttl = 0 then [] else sends node (m.ttl - 1));
          on_link_change = (fun ~now:_ ~node:_ ~link_id:_ -> []);
          on_timer = Sim.Engine.no_timers;
          on_batch_end =
            (fun ~now ~node ->
              log := Batch_end (now, node) :: !log;
              if Rng.int rng 4 = 0 then sends node 0 else []) }
      in
      let e = Sim.Engine.create topo ~units:(fun _ -> 1) ~handlers in
      for node = 0 to n - 1 do
        Sim.Engine.perform e ~node (sends node 2)
      done;
      if Rng.bool rng then
        ignore (Sim.Engine.run_until e (float_of_int (Rng.int rng 5)));
      ignore (Sim.Engine.run_to_quiescence e);
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (* [last]: the previous delivery's (time, seq); [open_]: the
         (time, node) of the burst awaiting its batch end; [closed]: the
         burst whose batch end was the previous entry. *)
      let step (last, open_, closed) entry =
        match entry with
        | Delivered (time, node, seq) ->
          (match last with
          | Some (t, s) when time < t || (time = t && seq < s) ->
            fail "seq %d at t=%g after seq %d at t=%g" seq time s t
          | _ -> ());
          (match open_ with
          | Some burst when burst <> (time, node) ->
            fail "delivery to %d at t=%g inside another burst" node time
          | _ -> ());
          if closed = Some (time, node) then
            fail "burst at node %d, t=%g split by its batch end" node time;
          (Some (time, seq), Some (time, node), None)
        | Batch_end (time, node) ->
          if open_ <> Some (time, node) then
            fail "batch end at node %d, t=%g closes no burst" node time;
          (last, None, Some (time, node))
      in
      let _, open_, _ = List.fold_left step (None, None, None) (List.rev !log) in
      open_ = None)

(* The data-plane path: [Path.follow] over a runner's next hops. *)
let test_forwarding_path_helper () =
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  let follow ~src ~dest =
    Path.follow (fun v -> runner.Sim.Runner.next_hop ~src:v ~dest) ~src ~dest
  in
  (match follow ~src:0 ~dest:3 with
  | Path.Reached p -> Helpers.check_path "A to D data plane" [ 0; 1; 3 ] p
  | Path.Stuck _ | Path.Looped _ -> Alcotest.fail "no forwarding path");
  Alcotest.(check bool) "self" true
    (follow ~src:3 ~dest:3 = Path.Reached [ 3 ])

let suite =
  [ Alcotest.test_case "delays accumulate" `Quick test_delays_accumulate;
    Alcotest.test_case "send to non-neighbor dropped" `Quick
      test_send_to_nonneighbor_dropped;
    Alcotest.test_case "send over down link dropped" `Quick
      test_send_over_down_link_dropped;
    Alcotest.test_case "in-flight loss" `Quick test_in_flight_loss;
    Alcotest.test_case "link change notifies endpoints" `Quick
      test_link_change_notifies_both_endpoints;
    Alcotest.test_case "units accounting" `Quick test_units_accounting;
    Alcotest.test_case "timers fire in order" `Quick
      test_timers_fire_in_order;
    Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
    Alcotest.test_case "probabilistic loss" `Quick test_probabilistic_loss;
    Alcotest.test_case "run_until pauses and resumes" `Quick
      test_run_until_pauses_and_resumes;
    Alcotest.test_case "mark spans initial sends" `Quick
      test_mark_spans_initial_sends;
    Alcotest.test_case "batch end per burst" `Quick test_batch_end_per_burst;
    Alcotest.test_case "batching stable under run_until split" `Quick
      test_batch_survives_run_until_split;
    QCheck_alcotest.to_alcotest engine_order_qcheck;
    Alcotest.test_case "forwarding path helper" `Quick
      test_forwarding_path_helper ]
