type fault =
  | Link_flap of { link_id : int; at : float; duration : float }
  | Node_outage of { node : int; at : float; duration : float }
  | Srlg_cut of { links : int list; at : float; duration : float }
  | Maintenance of { links : int list; at : float; stagger : float;
                     hold : float }
  | Lossy_link of { link_id : int; rate : float; from_t : float;
                    until_t : float }
  | Route_leak of { node : int; at : float; duration : float }
  | Prefix_hijack of { node : int; victim : int; at : float;
                       duration : float }
  | Plist_misconfig of { node : int; at : float; duration : float }

type t = {
  name : string;
  seed : int;
  horizon : float;
  sample_every : float;
  faults : fault list;
}

(* Policy overrides are expressed over plain ints so the scenario layer
   stays policy-type-free; Delta_wave maps them onto the compiled
   policy's setters. *)
type policy_change =
  | Leak of { node : int; on : bool }
  | Claim of { node : int; dest : int; on : bool }
  | Corrupt of { node : int; on : bool }

type change =
  | Set_links of (int * bool) list
  | Set_loss of (int * float) list
  | Set_policy of policy_change list

type event = { at : float; change : change }

let validate topo s =
  if not (s.horizon > 0.0) then
    invalid_arg "Scenario: horizon must be positive";
  if not (s.sample_every > 0.0) then
    invalid_arg "Scenario: sample_every must be positive";
  let check_link id =
    if id < 0 || id >= Topology.num_links topo then
      invalid_arg (Printf.sprintf "Scenario: link %d out of range" id)
  in
  let check_node node =
    if node < 0 || node >= Topology.num_nodes topo then
      invalid_arg (Printf.sprintf "Scenario: node %d out of range" node)
  in
  let check_time at =
    if at < 0.0 || not (Float.is_finite at) then
      invalid_arg (Printf.sprintf "Scenario: bad event time %g" at)
  in
  List.iter
    (fun fault ->
      match fault with
      | Link_flap { link_id; at; duration } ->
        check_link link_id; check_time at; check_time duration
      | Node_outage { node; at; duration } ->
        if node < 0 || node >= Topology.num_nodes topo then
          invalid_arg (Printf.sprintf "Scenario: node %d out of range" node);
        check_time at; check_time duration
      | Srlg_cut { links; at; duration } ->
        List.iter check_link links; check_time at; check_time duration
      | Maintenance { links; at; stagger; hold } ->
        List.iter check_link links; check_time at; check_time stagger;
        check_time hold
      | Lossy_link { link_id; rate; from_t; until_t } ->
        check_link link_id; check_time from_t; check_time until_t;
        if rate < 0.0 || rate > 1.0 then
          invalid_arg (Printf.sprintf "Scenario: bad loss rate %g" rate)
      | Route_leak { node; at; duration } ->
        check_node node; check_time at; check_time duration
      | Prefix_hijack { node; victim; at; duration } ->
        check_node node; check_node victim;
        if node = victim then
          invalid_arg
            (Printf.sprintf "Scenario: node %d cannot hijack itself" node);
        check_time at; check_time duration
      | Plist_misconfig { node; at; duration } ->
        check_node node; check_time at; check_time duration)
    s.faults

(* All links adjacent to a node, up or down — a crash severs them
   regardless of their current state. *)
let adjacent_links topo node =
  Topology.fold_links topo ~init:[] ~f:(fun acc l ->
      if l.Topology.a = node || l.Topology.b = node then l.Topology.id :: acc
      else acc)
  |> List.rev

(* One fault expands to a list of timed changes; groups stay atomic
   (one Set_links covering the whole group). *)
let expand topo fault =
  match fault with
  | Link_flap { link_id; at; duration } ->
    [ (at, Set_links [ (link_id, false) ]);
      (at +. duration, Set_links [ (link_id, true) ]) ]
  | Node_outage { node; at; duration } ->
    let links = adjacent_links topo node in
    [ (at, Set_links (List.map (fun id -> (id, false)) links));
      (at +. duration, Set_links (List.map (fun id -> (id, true)) links)) ]
  | Srlg_cut { links; at; duration } ->
    [ (at, Set_links (List.map (fun id -> (id, false)) links));
      (at +. duration, Set_links (List.map (fun id -> (id, true)) links)) ]
  | Maintenance { links; at; stagger; hold } ->
    (* Graceful window: the links are taken down one at a time, held,
       then restored one at a time in the same order. *)
    List.concat
      (List.mapi
         (fun i id ->
           let t_down = at +. (float_of_int i *. stagger) in
           [ (t_down, Set_links [ (id, false) ]);
             (t_down +. hold, Set_links [ (id, true) ]) ])
         links)
  | Lossy_link { link_id; rate; from_t; until_t } ->
    [ (from_t, Set_loss [ (link_id, rate) ]);
      (until_t, Set_loss [ (link_id, 0.0) ]) ]
  | Route_leak { node; at; duration } ->
    [ (at, Set_policy [ Leak { node; on = true } ]);
      (at +. duration, Set_policy [ Leak { node; on = false } ]) ]
  | Prefix_hijack { node; victim; at; duration } ->
    [ (at, Set_policy [ Claim { node; dest = victim; on = true } ]);
      (at +. duration, Set_policy [ Claim { node; dest = victim; on = false } ]) ]
  | Plist_misconfig { node; at; duration } ->
    [ (at, Set_policy [ Corrupt { node; on = true } ]);
      (at +. duration, Set_policy [ Corrupt { node; on = false } ]) ]

let compile topo s =
  validate topo s;
  let changes =
    List.concat
      (List.mapi
         (fun rank fault ->
           List.map (fun (at, change) -> (at, rank, change)) (expand topo fault))
         s.faults)
  in
  (* Stable order: time, then declaration order — simultaneous changes
     from distinct faults apply in the order the scenario lists them. *)
  let sorted =
    List.stable_sort
      (fun (t1, r1, _) (t2, r2, _) ->
        match compare (t1 : float) t2 with 0 -> compare r1 r2 | c -> c)
      changes
  in
  List.map (fun (at, _, change) -> { at; change }) sorted

let disrupts = function
  | Set_links changes -> List.exists (fun (_, up) -> not up) changes
  | Set_loss _ -> false
  | Set_policy changes ->
    List.exists
      (function Leak { on; _ } | Claim { on; _ } | Corrupt { on; _ } -> on)
      changes

let sample_times s =
  let rec go acc t =
    if t <= s.horizon then go (t :: acc) (t +. s.sample_every)
    else List.rev acc
  in
  go [] 0.0

(* Seeded churn generator: [flaps] link flaps at uniform times with
   exponential outage durations, plus (on topologies large enough) one
   node outage and one two-link SRLG cut, plus one lossy-link window.
   Times land in the first 60% of the horizon so convergence tails
   remain observable. *)
let random_churn ~seed ~horizon ~sample_every ?(flaps = 6) topo =
  let rng = Rng.create seed in
  let num_links = Topology.num_links topo in
  let num_nodes = Topology.num_nodes topo in
  if num_links = 0 then invalid_arg "Scenario.random_churn: no links";
  let window = horizon *. 0.6 in
  let flap _ =
    Link_flap
      { link_id = Rng.int rng num_links;
        at = Rng.float rng window;
        duration = Float.max sample_every (Rng.exponential rng (horizon /. 8.0)) }
  in
  let flaps = List.init flaps flap in
  let correlated =
    if num_links < 4 || num_nodes < 4 then []
    else begin
      let node = Rng.int rng num_nodes in
      let l1 = Rng.int rng num_links in
      let l2 = (l1 + 1 + Rng.int rng (num_links - 1)) mod num_links in
      [ Node_outage
          { node;
            at = Rng.float rng window;
            duration = Float.max sample_every (horizon /. 10.0) };
        Srlg_cut
          { links = [ l1; l2 ];
            at = Rng.float rng window;
            duration = Float.max sample_every (horizon /. 12.0) } ]
    end
  in
  let lossy =
    let from_t = Rng.float rng window in
    Lossy_link
      { link_id = Rng.int rng num_links;
        rate = 0.3;
        from_t;
        until_t = from_t +. (horizon /. 6.0) }
  in
  { name = Printf.sprintf "churn-%d" seed;
    seed;
    horizon;
    sample_every;
    faults = flaps @ correlated @ [ lossy ] }
