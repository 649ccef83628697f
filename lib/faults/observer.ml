type verdict = Delivered | Blackholed | Looped | Unroutable

type t = {
  topo : Topology.t;
  pairs : (int * int) array;
  dests : int array;               (* distinct destinations of [pairs] *)
  sample_every : float;
  reachable : (int, bool array) Hashtbl.t;  (* dest -> per-src truth *)
  (* accumulation *)
  mutable samples : int;
  mutable delivered_samples : int;
  mutable routable_samples : int;
  blackhole : float array;         (* per pair, ms *)
  looped : float array;
  unroutable : float array;
  mutable curve : (float * float) list;  (* reversed (time, routability) *)
  awaiting_since : float option array;   (* per pair: disruption awaiting
                                            first correct path *)
  mutable ttfc : float list;
  mutable open_disruptions : float list; (* times not yet fully recovered *)
  mutable recoveries : float list;
  (* verdict cache over the runner's changed-destination feed *)
  last_verdict : verdict option array;
  mutable view_stale : bool;  (* truth or link state moved since the
                                 last sample; set by refresh_truth *)
  metrics : Obs.Metrics.t;
  c_fresh : Obs.Metrics.counter;
  c_cached : Obs.Metrics.counter;
  c_samples : Obs.Metrics.counter;
}

let create ?metrics topo ~pairs ~sample_every =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let pairs = Array.of_list pairs in
  Array.iter
    (fun (s, d) ->
      let n = Topology.num_nodes topo in
      if s < 0 || s >= n || d < 0 || d >= n || s = d then
        invalid_arg (Printf.sprintf "Observer: bad probe pair (%d, %d)" s d))
    pairs;
  let dests =
    Array.to_list pairs
    |> List.map snd |> List.sort_uniq compare |> Array.of_list
  in
  { topo;
    pairs;
    dests;
    sample_every;
    reachable = Hashtbl.create 16;
    samples = 0;
    delivered_samples = 0;
    routable_samples = 0;
    blackhole = Array.make (Array.length pairs) 0.0;
    looped = Array.make (Array.length pairs) 0.0;
    unroutable = Array.make (Array.length pairs) 0.0;
    curve = [];
    awaiting_since = Array.make (Array.length pairs) None;
    ttfc = [];
    open_disruptions = [];
    recoveries = [];
    last_verdict = Array.make (Array.length pairs) None;
    view_stale = true;
    metrics;
    c_fresh = Obs.Metrics.counter metrics "observer.fresh_probes";
    c_cached = Obs.Metrics.counter metrics "observer.cached_probes";
    c_samples = Obs.Metrics.counter metrics "observer.samples" }

(* Policy ground truth under the topology's current link state: which
   sources have any Gao-Rexford route to each probed destination. *)
let refresh_truth t =
  Array.iter
    (fun dest ->
      let routes = Solver.to_dest t.topo dest in
      let per_src =
        Array.init (Topology.num_nodes t.topo) (fun src ->
            Solver.reachable routes src)
      in
      Hashtbl.replace t.reachable dest per_src)
    t.dests;
  t.view_stale <- true

let truth_reachable t ~src ~dest =
  match Hashtbl.find_opt t.reachable dest with
  | Some per_src -> per_src.(src)
  | None -> invalid_arg "Observer: refresh_truth never called"

(* Data-plane walk: follow next hops, requiring each hop's link to be
   up right now — a stale next hop over a dead link is a blackhole, a
   revisited node is a transient loop. *)
let classify t (runner : Sim.Runner.t) ~src ~dest =
  let next v =
    Option.bind (runner.Sim.Runner.next_hop ~src:v ~dest) (fun hop ->
        match Topology.link_between t.topo v hop with
        | Some link_id when Topology.is_up t.topo link_id -> Some hop
        | Some _ | None -> None)
  in
  match Path.follow next ~src ~dest with
  | Path.Reached _ -> Delivered
  | Path.Stuck _ -> Blackholed
  | Path.Looped _ -> Looped

let probe t runner ~src ~dest =
  if truth_reachable t ~src ~dest then classify t runner ~src ~dest
  else Unroutable

(* Only pairs actually broken by the disruption start a
   time-to-first-correct clock; untouched pairs would otherwise record a
   trivial first-sample "recovery". *)
let note_disruption t runner ~now =
  t.open_disruptions <- now :: t.open_disruptions;
  Array.iteri
    (fun i (src, dest) ->
      if t.awaiting_since.(i) = None then
        match probe t runner ~src ~dest with
        | Delivered | Unroutable -> ()
        | Blackholed | Looped -> t.awaiting_since.(i) <- Some now)
    t.pairs

(* A pair's verdict can only move when the ground truth or a link state
   changed (refresh_truth marks the view stale) or some node re-routed
   toward the pair's destination — which the runner's drained
   changed-destination feed reports. Everything else replays the cached
   verdict, so steady sampling of a quiet network costs no data-plane
   walks. *)
let sample t runner ~now =
  let changed = Hashtbl.create 16 in
  List.iter
    (fun d -> Hashtbl.replace changed d ())
    (runner.Sim.Runner.changed_dests ());
  let routable = ref 0 and ok = ref 0 in
  Array.iteri
    (fun i (src, dest) ->
      let v =
        match t.last_verdict.(i) with
        | Some v when (not t.view_stale) && not (Hashtbl.mem changed dest)
          ->
          Obs.Metrics.incr t.c_cached;
          v
        | _ ->
          Obs.Metrics.incr t.c_fresh;
          probe t runner ~src ~dest
      in
      t.last_verdict.(i) <- Some v;
      (match v with
      | Delivered ->
        incr routable;
        incr ok;
        (match t.awaiting_since.(i) with
        | Some since ->
          t.ttfc <- (now -. since) :: t.ttfc;
          t.awaiting_since.(i) <- None
        | None -> ())
      | Blackholed ->
        incr routable;
        t.blackhole.(i) <- t.blackhole.(i) +. t.sample_every
      | Looped ->
        incr routable;
        t.looped.(i) <- t.looped.(i) +. t.sample_every
      | Unroutable ->
        t.unroutable.(i) <- t.unroutable.(i) +. t.sample_every))
    t.pairs;
  t.view_stale <- false;
  Obs.Metrics.incr t.c_samples;
  t.samples <- t.samples + 1;
  t.delivered_samples <- t.delivered_samples + !ok;
  t.routable_samples <- t.routable_samples + !routable;
  let fraction =
    if !routable = 0 then 1.0
    else float_of_int !ok /. float_of_int !routable
  in
  t.curve <- (now, fraction) :: t.curve;
  if !ok = !routable && t.open_disruptions <> [] then begin
    List.iter
      (fun since -> t.recoveries <- (now -. since) :: t.recoveries)
      t.open_disruptions;
    t.open_disruptions <- []
  end

let metrics t = t.metrics

type report = {
  protocol : string;
  pairs : int;
  samples : int;
  availability : float;
  blackhole_ms : float;
  loop_ms : float;
  unavailable_ms : float;
  unroutable_ms : float;
  routability : (float * float) array;
  pair_unavail_ms : float array;
  recovery_ms : float array;
  ttfc_ms : float array;
  stats : Sim.Engine.run_stats;
}

let total = Array.fold_left ( +. ) 0.0

let report (t : t) ~protocol ~stats =
  let pair_unavail =
    Array.init (Array.length t.pairs) (fun i ->
        t.blackhole.(i) +. t.looped.(i))
  in
  { protocol;
    pairs = Array.length t.pairs;
    samples = t.samples;
    availability =
      (if t.routable_samples = 0 then 1.0
       else
         float_of_int t.delivered_samples /. float_of_int t.routable_samples);
    blackhole_ms = total t.blackhole;
    loop_ms = total t.looped;
    unavailable_ms = total pair_unavail;
    unroutable_ms = total t.unroutable;
    routability = Array.of_list (List.rev t.curve);
    pair_unavail_ms = pair_unavail;
    recovery_ms = Array.of_list (List.rev t.recoveries);
    ttfc_ms = Array.of_list (List.rev t.ttfc);
    stats }
