module Scenario = Faults.Scenario

type event = Scenario.event

type t = {
  seed : int;
  rate : float;
  duration : float;
  events : event array;
}

let events t = t.events

let num_events t = Array.length t.events

(* The most arrivals a stream may expect (rate x duration): a stream
   is held in memory whole, so an unbounded one would exhaust it. The
   largest stream any experiment or benchmark generates expects about
   600. *)
let max_expected_arrivals = 1e6

(* How many times to re-draw a busy link/node before giving the arrival
   up. Sustained load keeps most resources free, so misses are rare; a
   bounded retry keeps generation O(events) on saturated streams. *)
let attempts = 8

let generate ~seed ~rate ~duration ?(flap_hold = 15.0)
    ?(policy_share = 0.0) ?(loss_share = 0.0) topo =
  let positive x = Float.is_finite x && x > 0.0 in
  if not (positive rate) then
    invalid_arg "Update_stream.generate: rate must be finite and > 0";
  if not (positive duration) then
    invalid_arg "Update_stream.generate: duration must be finite and > 0";
  if rate *. duration > max_expected_arrivals then
    invalid_arg
      (Printf.sprintf
         "Update_stream.generate: rate x duration expects %g arrivals, over \
          the %g limit"
         (rate *. duration) max_expected_arrivals);
  if policy_share < 0.0 || loss_share < 0.0
     || policy_share +. loss_share > 1.0
  then invalid_arg "Update_stream.generate: bad kind shares";
  let num_links = Topology.num_links topo in
  let num_nodes = Topology.num_nodes topo in
  if num_links = 0 then
    invalid_arg "Update_stream.generate: topology has no links";
  let rng = Rng.create seed in
  let events = ref [] in
  let push at change = events := { Scenario.at; change } :: !events in
  (* A link (or policy node) is busy while its paired restore event is
     still ahead: generating only on free resources keeps every
     transition real — per-resource sequences strictly alternate — so
     event-at-a-time replay never injects a redundant change. *)
  let link_free = Array.make num_links 0.0 in
  let node_free = Array.make num_nodes 0.0 in
  let rec find_free free_at n t remaining =
    if remaining = 0 then None
    else
      let i = Rng.int_in rng 0 (n - 1) in
      if free_at.(i) <= t then Some i
      else find_free free_at n t (remaining - 1)
  in
  let clock = ref 0.0 in
  let continue = ref true in
  while !continue do
    clock := !clock +. Rng.exponential rng (1.0 /. rate);
    if !clock > duration then continue := false
    else begin
      let t = !clock in
      let kind = Rng.float rng 1.0 in
      if kind < policy_share then begin
        match find_free node_free num_nodes t attempts with
        | None -> ()
        | Some node ->
          let hold = Rng.exponential rng flap_hold in
          node_free.(node) <- t +. hold;
          let on, off =
            match Rng.int_in rng 0 2 with
            | 0 ->
              ( Scenario.Leak { node; on = true },
                Scenario.Leak { node; on = false } )
            | 1 ->
              let dest =
                let d = Rng.int_in rng 0 (num_nodes - 2) in
                if d >= node then d + 1 else d
              in
              ( Scenario.Claim { node; dest; on = true },
                Scenario.Claim { node; dest; on = false } )
            | _ ->
              ( Scenario.Corrupt { node; on = true },
                Scenario.Corrupt { node; on = false } )
          in
          push t (Scenario.Set_policy [ on ]);
          push (t +. hold) (Scenario.Set_policy [ off ])
      end
      else if kind < policy_share +. loss_share then begin
        match find_free link_free num_links t attempts with
        | None -> ()
        | Some link_id ->
          let hold = Rng.exponential rng flap_hold in
          link_free.(link_id) <- t +. hold;
          push t (Scenario.Set_loss [ (link_id, 0.2) ]);
          push (t +. hold) (Scenario.Set_loss [ (link_id, 0.0) ])
      end
      else begin
        match find_free link_free num_links t attempts with
        | None -> ()
        | Some link_id ->
          let hold = Rng.exponential rng flap_hold in
          link_free.(link_id) <- t +. hold;
          push t (Scenario.Set_links [ (link_id, false) ]);
          push (t +. hold) (Scenario.Set_links [ (link_id, true) ])
      end
    end
  done;
  let arr = Array.of_list (List.rev !events) in
  (* Restore events trail their outage, so arrival order is not time
     order; the sort is stable, so equal-time events keep generation
     order and replay is fully deterministic. *)
  Array.stable_sort (fun (e1 : event) (e2 : event) -> compare e1.at e2.at) arr;
  { seed; rate; duration; events = arr }
