type t = {
  name : string;
  cold_start : ?max_events:int -> unit -> Engine.run_stats;
  flip : link_id:int -> up:bool -> Engine.run_stats;
  inject : (int * bool) list -> unit;
  run_until : float -> Engine.run_stats;
  run_to_quiescence : ?max_events:int -> unit -> Engine.run_stats;
  set_loss : link_id:int -> rate:float -> unit;
  seed_loss : int -> unit;
  pending_events : unit -> int;
  now : unit -> float;
  last_event_time : unit -> float;
  next_hop : src:int -> dest:int -> int option;
  path : src:int -> dest:int -> Path.t option;
  changed_dests : unit -> int list;
  on_policy_change : int list -> unit;
  trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
}

let sends_to_actions sends =
  List.map (fun (dst, m) -> Engine.Send (dst, m)) sends

let cold_start_states ?max_events engine states init =
  let since = Engine.mark engine in
  Array.iteri
    (fun i st -> Engine.perform engine ~node:i (init i st))
    states;
  Engine.run_to_quiescence ?max_events ~since engine

let make ~name ~engine ~cold_start ~changed
    ?(on_policy_change = fun _ -> ()) ~next_hop ~path () =
  let inject changes =
    List.iter
      (fun (link_id, up) -> Engine.flip_link engine ~link_id ~up)
      changes
  in
  let flip ~link_id ~up =
    Engine.flip_link engine ~link_id ~up;
    Engine.run_to_quiescence engine
  in
  let cold_start ?max_events () =
    let stats = cold_start ?max_events () in
    (* Cold start changes everything; consumers of the change feed care
       about what moves after the initial convergence. *)
    Dirty.clear changed;
    stats
  in
  { name;
    cold_start;
    flip;
    inject;
    run_until = (fun horizon -> Engine.run_until engine horizon);
    run_to_quiescence =
      (fun ?max_events () -> Engine.run_to_quiescence ?max_events engine);
    set_loss =
      (fun ~link_id ~rate -> Engine.set_loss engine ~link_id ~rate);
    seed_loss = (fun seed -> Engine.seed_loss engine seed);
    pending_events = (fun () -> Engine.pending_events engine);
    now = (fun () -> Engine.now engine);
    last_event_time = (fun () -> Engine.last_event_time engine);
    next_hop;
    path;
    changed_dests = (fun () -> Dirty.take changed);
    on_policy_change;
    trace = Engine.trace engine;
    metrics = Engine.metrics engine }
