module Metrics = Obs.Metrics

type wave = {
  events_seen : int;
  link_sets : int;
  cancelled : int;
  loss_sets : int;
  policy_nodes : int;
}

type instruments = {
  i_waves : Metrics.counter;
  i_events : Metrics.counter;
  i_cancelled : Metrics.counter;
  i_size : Metrics.histogram;
}

type t = { instruments : instruments option }

let wave_size_buckets =
  [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 512.0; 1024.0 |]

let create ?metrics () =
  let instruments =
    match metrics with
    | None -> None
    | Some m ->
      Some
        { i_waves = Metrics.counter m "wave.waves";
          i_events = Metrics.counter m "wave.events";
          i_cancelled = Metrics.counter m "wave.cancelled_links";
          i_size = Metrics.histogram m ~buckets:wave_size_buckets "wave.size" }
  in
  { instruments }

(* Flip one override on the compiled policy; the node it names is owed a
   recompute poke. *)
let apply_policy_change pol = function
  | Scenario.Leak { node; on } ->
    Policy.set_leak pol ~node on;
    node
  | Scenario.Claim { node; dest; on } ->
    Policy.set_claim pol ~node ~dest on;
    node
  | Scenario.Corrupt { node; on } ->
    Policy.set_corrupt pol ~node on;
    node

(* Net effect of the group against the live topology:
   - links: the last target per link wins; a target equal to the link's
     current state is dropped entirely (an up→down→up flap inside one
     group cancels, and a redundant re-assertion of the current state
     never wakes the endpoints);
   - loss rates: last write per link wins;
   - policy overrides: returned in arrival order (overrides can
     overwrite each other). *)
let coalesce topo changes =
  let link_events = ref 0 and loss_events = ref 0 in
  let link_target : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let link_order = ref [] in
  let loss_target : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let loss_order = ref [] in
  let overrides = ref [] in
  let set_link (link_id, up) =
    incr link_events;
    if not (Hashtbl.mem link_target link_id) then
      link_order := link_id :: !link_order;
    Hashtbl.replace link_target link_id up
  in
  let set_loss (link_id, rate) =
    incr loss_events;
    if not (Hashtbl.mem loss_target link_id) then
      loss_order := link_id :: !loss_order;
    Hashtbl.replace loss_target link_id rate
  in
  List.iter
    (function
      | Scenario.Set_links targets -> List.iter set_link targets
      | Scenario.Set_loss rates -> List.iter set_loss rates
      | Scenario.Set_policy flips ->
        overrides := List.rev_append flips !overrides)
    changes;
  let flips =
    List.filter_map
      (fun link_id ->
        let target = Hashtbl.find link_target link_id in
        if Topology.is_up topo link_id = target then None
        else Some (link_id, target))
      (List.sort compare !link_order)
  in
  let losses =
    List.map
      (fun link_id -> (link_id, Hashtbl.find loss_target link_id))
      (List.sort compare !loss_order)
  in
  let overrides = List.rev !overrides in
  ( !link_events + !loss_events + List.length overrides,
    !link_events,
    flips,
    losses,
    overrides )

let apply ?policy t topo (runner : Sim.Runner.t) changes =
  let seen, link_events, flips, losses, overrides = coalesce topo changes in
  (* Checked before anything is injected, so a bad call leaves the
     runner as it was. *)
  if overrides <> [] && policy = None then
    invalid_arg
      "Delta_wave.apply: policy override but no ~policy was given (pass \
       the same compiled policy the runner was built with)";
  if flips <> [] then runner.Sim.Runner.inject flips;
  List.iter
    (fun (link_id, rate) -> runner.Sim.Runner.set_loss ~link_id ~rate)
    losses;
  (* Each touched node is owed exactly one recompute poke. *)
  let poke =
    match policy with
    | None -> []
    | Some pol ->
      List.sort_uniq compare
        (List.fold_left
           (fun nodes pc -> apply_policy_change pol pc :: nodes)
           [] overrides)
  in
  if poke <> [] then runner.Sim.Runner.on_policy_change poke;
  let wave =
    { events_seen = seen;
      link_sets = List.length flips;
      cancelled = link_events - List.length flips;
      loss_sets = List.length losses;
      policy_nodes = List.length poke }
  in
  (match t.instruments with
  | None -> ()
  | Some i ->
    Metrics.incr i.i_waves;
    Metrics.add i.i_events wave.events_seen;
    Metrics.add i.i_cancelled wave.cancelled;
    Metrics.observe i.i_size (float_of_int wave.events_seen));
  wave
