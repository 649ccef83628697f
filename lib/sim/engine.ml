module Trace = Obs.Trace
module Metrics = Obs.Metrics

type 'msg action =
  | Send of int * 'msg
  | Timer of float * int

type 'msg handlers = {
  on_message : now:float -> node:int -> src:int -> 'msg -> 'msg action list;
  on_link_change : now:float -> node:int -> link_id:int -> 'msg action list;
  on_timer : now:float -> node:int -> key:int -> 'msg action list;
  on_batch_end : now:float -> node:int -> 'msg action list;
}

let no_timers ~now:_ ~node ~key =
  invalid_arg
    (Printf.sprintf "Engine.no_timers: node %d armed timer %d" node key)

let no_batching ~now:_ ~node:_ = []

type 'msg event =
  | Deliver of { src : int; dst : int; link_id : int; epoch : int; msg : 'msg }
  | Link_notify of { node : int; link_id : int }
  | Timer_fire of { node : int; key : int }

type 'msg t = {
  topo : Topology.t;
  units : 'msg -> int;
  bytes : 'msg -> int;
  handlers : 'msg handlers;
  queue : 'msg event Heap.t;
  (* Keyed by delivery time, tied by [scheduled]: events due at the same
     time run in the order they were scheduled. *)
  mutable scheduled : int;
  loss : float array;  (* per-link delivery loss probability *)
  epochs : int array;
  (* Per-link session incarnation, bumped on every up->down transition.
     Deliveries carry their send-time incarnation and are lost on a
     mismatch: a message in flight when its link bounces must not be
     delivered into the fresh session — the protocols reset their
     per-session state (Adj-RIBs, MRAI pending) on the flip, so a
     delivery from the previous incarnation would be absorbed as if the
     new session had advertised it, leaving stale state nobody ever
     withdraws. *)
  mutable loss_rng : Rng.t;
  mutable clock : float;
  mutable last_event : float;
  trace : Trace.t;
  metrics : Metrics.t;
  c_messages : Metrics.counter;
  c_units : Metrics.counter;
  c_bytes : Metrics.counter;
  c_deliveries : Metrics.counter;
  c_losses : Metrics.counter;
  c_events : Metrics.counter;
  c_waves : Metrics.counter;
}

type run_stats = {
  duration : float;
  messages : int;
  units : int;
  bytes : int;
  deliveries : int;
  losses : int;
  events : int;
  waves : int;
}

let zero_stats =
  { duration = 0.0; messages = 0; units = 0; bytes = 0; deliveries = 0;
    losses = 0; events = 0; waves = 0 }

let add_stats a b =
  { duration = a.duration +. b.duration;
    messages = a.messages + b.messages;
    units = a.units + b.units;
    bytes = a.bytes + b.bytes;
    deliveries = a.deliveries + b.deliveries;
    losses = a.losses + b.losses;
    events = a.events + b.events;
    waves = a.waves + b.waves }

(* Fills the queue's vacant payload slots. *)
let vacant = Timer_fire { node = -1; key = -1 }

let create ?(trace = Trace.none) ?metrics ?(bytes = fun _ -> 0) topo ~units
    ~handlers =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let t =
    { topo;
      units;
      bytes;
      handlers;
      queue = Heap.create ~dummy:vacant;
      scheduled = 0;
      loss = Array.make (Topology.num_links topo) 0.0;
      epochs = Array.make (Topology.num_links topo) 0;
      loss_rng = Rng.create 0;
      clock = 0.0;
      last_event = 0.0;
      trace;
      metrics;
      c_messages = Metrics.counter metrics "engine.messages";
      c_units = Metrics.counter metrics "engine.units";
      c_bytes = Metrics.counter metrics "engine.bytes";
      c_deliveries = Metrics.counter metrics "engine.deliveries";
      c_losses = Metrics.counter metrics "engine.losses";
      c_events = Metrics.counter metrics "engine.events";
      c_waves = Metrics.counter metrics "engine.waves" }
  in
  if Trace.enabled trace then begin
    (* Replay needs the ground truth the checker starts from: links are
       up by default, so only snapshot the exceptions. *)
    Trace.set_now trace 0.0;
    for link_id = 0 to Topology.num_links topo - 1 do
      if not (Topology.is_up topo link_id) then begin
        let link = Topology.link topo link_id in
        Trace.emit trace
          (Trace.Link_state
             { link_id; a = link.Topology.a; b = link.Topology.b; up = false })
      end
    done
  end;
  t

let now t = t.clock

let last_event_time t = t.last_event

let trace t = t.trace

let metrics t = t.metrics

let pending_events t = Heap.length t.queue

let set_loss t ~link_id ~rate =
  if link_id < 0 || link_id >= Array.length t.loss then
    invalid_arg (Printf.sprintf "Engine.set_loss: bad link id %d" link_id);
  if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Engine.set_loss: bad rate %g" rate);
  t.loss.(link_id) <- rate

let seed_loss t seed = t.loss_rng <- Rng.create seed

let schedule t time event =
  Heap.push t.queue ~key:time ~tie:t.scheduled event;
  t.scheduled <- t.scheduled + 1

let rec perform t ~node = function
  | [] -> ()
  | Send (dst, msg) :: rest ->
    (match Topology.link_between t.topo node dst with
    | None -> ()
    | Some link_id ->
      if Topology.is_up t.topo link_id then begin
        let delay = (Topology.link t.topo link_id).Topology.delay in
        let units = t.units msg in
        Metrics.incr t.c_messages;
        Metrics.add t.c_units units;
        Metrics.add t.c_bytes (t.bytes msg);
        if Trace.enabled t.trace then
          Trace.emit t.trace (Trace.Msg_send { src = node; dst; link_id; units });
        schedule t (t.clock +. delay)
          (Deliver
             { src = node; dst; link_id; epoch = t.epochs.(link_id); msg })
      end);
    perform t ~node rest
  | Timer (delay, key) :: rest ->
    if not (delay >= 0.0) then invalid_arg "Engine.perform: negative timer";
    let fire_at = t.clock +. delay in
    if Trace.enabled t.trace then
      Trace.emit t.trace (Trace.Timer_set { node; key; fire_at });
    schedule t fire_at (Timer_fire { node; key });
    perform t ~node rest

let flip_link t ~link_id ~up =
  if (not up) && Topology.is_up t.topo link_id then
    t.epochs.(link_id) <- t.epochs.(link_id) + 1;
  Topology.set_up t.topo link_id up;
  let link = Topology.link t.topo link_id in
  if Trace.enabled t.trace then begin
    Trace.set_now t.trace t.clock;
    Trace.emit t.trace
      (Trace.Link_flip
         { link_id; a = link.Topology.a; b = link.Topology.b; up })
  end;
  schedule t t.clock (Link_notify { node = link.Topology.a; link_id });
  schedule t t.clock (Link_notify { node = link.Topology.b; link_id })

exception Diverged of { processed : int; pending : int; waves : int }

type mark = {
  m_time : float;
  m_messages : int;
  m_units : int;
  m_bytes : int;
  m_delivered : int;
  m_lost : int;
  m_processed : int;
  m_waves : int;
}

let mark t =
  { m_time = t.clock;
    m_messages = Metrics.value t.c_messages;
    m_units = Metrics.value t.c_units;
    m_bytes = Metrics.value t.c_bytes;
    m_delivered = Metrics.value t.c_deliveries;
    m_lost = Metrics.value t.c_losses;
    m_processed = Metrics.value t.c_events;
    m_waves = Metrics.value t.c_waves }

(* Whether [event] extends the open batch of [node] (given it is due at
   the batch's time). *)
let extends ~node = function
  | Deliver { dst; _ } -> dst = node
  | Link_notify { node = n; _ } -> n = node
  | Timer_fire _ -> false

(* Shared event loop. [until = Some h] stops before the first event
   scheduled after [h] and advances the clock to [h]; [None] drains the
   queue.

   Deliveries and link notifications hitting the {e same node at the same
   timestamp} form a batch: each event's handler runs as usual (absorb
   phase), and when no further same-(time, node) event is queued the
   node's [on_batch_end] runs once (recompute phase). Protocols built on
   the dirty-set scheduler defer their recomputation to the batch end, so
   one recompute amortizes a burst of simultaneous updates — a node
   crash's adjacent-link cut, an SRLG, or a fan-in of equal-delay
   floods. A batch closes before any other event is processed, so its
   emissions enter the queue in correct time order.

   Trace framing mirrors that structure: [Batch_begin] is emitted before
   the opening delivery/notification's absorb runs, and [Batch_end]
   after the batch-end recompute and its emissions, so everything a
   batch causes — deliveries, dirty marks, the recompute span, the sends
   it triggers — sits between the two markers. *)
let run_core ~max_events ~since ~until t =
  let start_time = since.m_time in
  let horizon = match until with None -> infinity | Some h -> h in
  let traced = Trace.enabled t.trace in
  let q = t.queue in
  let budget = ref max_events in
  (* Open batch: the node a handler ran for at the current clock whose
     batch end is still pending, or -1. The batch's time is always the
     clock, since any event at another time closes it first. *)
  let batch = ref (-1) in
  let close_batch () =
    let node = !batch in
    batch := -1;
    Metrics.incr t.c_waves;
    perform t ~node (t.handlers.on_batch_end ~now:t.clock ~node);
    if traced then Trace.emit t.trace (Trace.Batch_end { node })
  in
  let running = ref true in
  while !running do
    if Heap.is_empty q then
      if !batch >= 0 then close_batch () else running := false
    else begin
      let time = Heap.min_key q in
      (* Close the open batch as soon as the next event cannot extend it
         (another node, another time, a timer; an empty queue above);
         its recompute may queue more events, so look again. *)
      if
        !batch >= 0
        && not (time = t.clock && extends ~node:!batch (Heap.min_value q))
      then close_batch ()
      else if time > horizon then running := false
      else begin
        (* Checked before the event is taken, so a diverged engine still
           holds every event it reports pending. *)
        if !budget = 0 then
          raise
            (Diverged
               { processed = Metrics.value t.c_events;
                 pending = Heap.length q;
                 waves = Metrics.value t.c_waves });
        decr budget;
        t.clock <- time;
        let event = Heap.min_value q in
        Heap.pop q;
        t.last_event <- t.clock;
        if traced then Trace.set_now t.trace t.clock;
        Metrics.incr t.c_events;
        match event with
        | Deliver { src; dst; link_id; epoch; msg } ->
          (* Lost if the link died while the message was in flight — even
             if it has since come back up: a bounce tears the session down
             and messages do not survive into the next incarnation — or to
             the link's probabilistic loss process. The loss draw happens
             only on links with a configured rate, so runs without a loss
             model never touch the RNG. *)
          if
            (not (Topology.is_up t.topo link_id))
            || epoch <> t.epochs.(link_id)
          then begin
            Metrics.incr t.c_losses;
            if traced then
              Trace.emit t.trace
                (Trace.Msg_loss { src; dst; link_id; dead_link = true })
          end
          else if
            t.loss.(link_id) > 0.0 && Rng.chance t.loss_rng t.loss.(link_id)
          then begin
            Metrics.incr t.c_losses;
            if traced then
              Trace.emit t.trace
                (Trace.Msg_loss { src; dst; link_id; dead_link = false })
          end
          else begin
            Metrics.incr t.c_deliveries;
            if traced then begin
              if !batch < 0 then
                Trace.emit t.trace (Trace.Batch_begin { node = dst });
              Trace.emit t.trace (Trace.Msg_deliver { src; dst; link_id })
            end;
            let actions =
              t.handlers.on_message ~now:t.clock ~node:dst ~src msg
            in
            batch := dst;
            perform t ~node:dst actions
          end
        | Link_notify { node; link_id } ->
          if traced && !batch < 0 then
            Trace.emit t.trace (Trace.Batch_begin { node });
          let actions =
            t.handlers.on_link_change ~now:t.clock ~node ~link_id
          in
          batch := node;
          perform t ~node actions
        | Timer_fire { node; key } ->
          if traced then Trace.emit t.trace (Trace.Timer_fire { node; key });
          let actions = t.handlers.on_timer ~now:t.clock ~node ~key in
          perform t ~node actions
      end
    end
  done;
  (* The loop closes any open batch (and processes whatever its
     recompute emitted) before it can exit, so on return no batch is
     pending. *)
  (match until with
  | Some h ->
    if h > t.clock then begin
      t.clock <- h;
      if traced then Trace.set_now t.trace h
    end
  | None -> ());
  let m = mark t in
  { duration = t.clock -. start_time;
    messages = m.m_messages - since.m_messages;
    units = m.m_units - since.m_units;
    bytes = m.m_bytes - since.m_bytes;
    deliveries = m.m_delivered - since.m_delivered;
    losses = m.m_lost - since.m_lost;
    events = m.m_processed - since.m_processed;
    waves = m.m_waves - since.m_waves }

let run_to_quiescence ?(max_events = 20_000_000) ?since t =
  let since = match since with Some m -> m | None -> mark t in
  run_core ~max_events ~since ~until:None t

let run_until ?(max_events = 20_000_000) ?since t horizon =
  let since = match since with Some m -> m | None -> mark t in
  run_core ~max_events ~since ~until:(Some horizon) t
