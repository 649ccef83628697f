open Gao_rexford

let pgraph_of_source topo ~src =
  let paths = Solver.path_set_from topo ~src in
  Pgraph.of_paths ~root:src paths

type entry_distribution = {
  one : int;
  two : int;
  three : int;
  more : int;
}

type pgraph_stats = {
  num_sources : int;
  avg_links : float;
  avg_plists : float;
  entry_dist : entry_distribution;
  avg_plist_compressed_bytes : float;
}

(* Mutable Table 4/5 totals. Every field is a sum of per-source
   integers, so accumulation order never shows in the result. *)
type stats_acc = {
  mutable a_links : int;
  mutable a_plists : int;
  mutable a_one : int;
  mutable a_two : int;
  mutable a_three : int;
  mutable a_more : int;
  mutable a_bytes : int;
}

let stats_zero () =
  { a_links = 0;
    a_plists = 0;
    a_one = 0;
    a_two = 0;
    a_three = 0;
    a_more = 0;
    a_bytes = 0 }

let stats_add_into ~into ws =
  into.a_links <- into.a_links + ws.a_links;
  into.a_plists <- into.a_plists + ws.a_plists;
  into.a_one <- into.a_one + ws.a_one;
  into.a_two <- into.a_two + ws.a_two;
  into.a_three <- into.a_three + ws.a_three;
  into.a_more <- into.a_more + ws.a_more;
  into.a_bytes <- into.a_bytes + ws.a_bytes

(* One Permission List of [entries] entries, priced at [bytes]. *)
let stats_add_plist acc ~entries ~bytes =
  acc.a_plists <- acc.a_plists + 1;
  (match entries with
  | 1 -> acc.a_one <- acc.a_one + 1
  | 2 -> acc.a_two <- acc.a_two + 1
  | 3 -> acc.a_three <- acc.a_three + 1
  | _ -> acc.a_more <- acc.a_more + 1);
  acc.a_bytes <- acc.a_bytes + bytes

let stats_finalize ~num_sources acc =
  let k = float_of_int num_sources in
  { num_sources;
    avg_links = float_of_int acc.a_links /. k;
    avg_plists = float_of_int acc.a_plists /. k;
    entry_dist =
      { one = acc.a_one; two = acc.a_two; three = acc.a_three;
        more = acc.a_more };
    avg_plist_compressed_bytes =
      (if acc.a_plists = 0 then 0.0
       else float_of_int acc.a_bytes /. float_of_int acc.a_plists) }

(* {2 Streamed per-source P-graph statistics}

   [analyze] and [analyze_vf] never build a P-graph per source. A
   source's statistics need only its BuildGraph traversal record, so
   each (source, dest, path) is streamed link by link into a
   {!Pgraph.Traversals.t}. *)

(* Fold one source's record into the Table 4/5 totals: every link
   counts, and each link into a multi-homed child adds its Permission
   List's entry count and its size Bloom-compressed at a 1%
   false-positive rate, read off the scratch BuildGraph's second pass
   fills. *)
let record_stats ~scratch acc r =
  Pgraph.Traversals.iter r scratch (fun ~key:_ ~count:_ pl ->
      acc.a_links <- acc.a_links + 1;
      match pl with
      | None -> ()
      | Some s ->
        stats_add_plist acc
          ~entries:(Permission_list.Scratch.num_entries s)
          ~bytes:
            (Permission_list.Scratch.compressed_size_bytes s ~fp_rate:0.01))

(* Per-domain scratch for the per-destination sweep: reusable solver
   workspaces (three-phase and fixpoint) plus one traversal record per
   requested source, and (when metrics are requested) a domain-private registry
   merged after the sweep — with its instrument handles resolved once
   at workspace creation, not looked up by name per destination. *)
type analyze_ws = {
  sws : Solver.workspace;
  stws : Stable.workspace;
  accs : Pgraph.Traversals.t array;
  ams : Obs.Metrics.t option;
  am_dests : Obs.Metrics.counter option;
  am_paths : Obs.Metrics.counter option;
  am_plen : Obs.Metrics.histogram option;
}

let path_len_buckets = [| 1.0; 2.0; 3.0; 4.0; 6.0; 8.0; 12.0; 16.0 |]

let ws_record_path ws hops =
  match ws.am_paths with
  | None -> ()
  | Some c ->
    Obs.Metrics.incr c;
    (match ws.am_plen with
    | Some h -> Obs.Metrics.observe h (float_of_int hops)
    | None -> ())

(* Walks the selected Standard route from [x] toward [r]'s destination,
   streaming every link into [acc]; returns the hop count. Top-level —
   a closure here would be re-allocated for every (destination, source)
   pair of the sweep. *)
let rec stream_route r acc d x hops =
  let y = Solver.next_hop_id r x in
  if y < 0 then hops
  else begin
    Pgraph.Traversals.add acc ~parent:x ~child:y ~dest:d
      ~next:(Solver.next_hop_id r y);
    stream_route r acc d y (hops + 1)
  end

let analyze ?(discipline = Gao_rexford.Standard) ?policy ?metrics topo
    ~sources =
  if sources = [] then invalid_arg "Static.analyze: empty source list";
  (* The default compiled policy is Gao–Rexford exactly — keep the
     three-phase fast path. A non-default policy routes every discipline
     through the generic fixpoint solver, which evaluates the compiled
     chains. *)
  let policy = Policy.configured policy in
  let n = Topology.num_nodes topo in
  let src_arr = Array.of_list sources in
  let k = Array.length src_arr in
  (* One solver run per destination, fanned out across the pool in
     destination batches: each domain claims a whole tile of
     destinations, amortizing workspace dispatch and metrics accounting
     across the tile, and streams the routes straight into its own
     per-source accumulators instead of materializing paths. The
     dedicated three-phase solver implements the Standard discipline
     against the domain's reusable workspace — and since every selected
     route extends its next hop's route, the path is walked hop by hop
     off the routes structure through the int-returning accessors, so a
     warm Standard tile allocates nothing. Other disciplines go through
     the generic fixpoint solver (also against a reusable workspace)
     and stream its interned path chains. *)
  let body ws ~lo ~hi =
    (match ws.am_dests with
    | Some c -> Obs.Metrics.add c (hi - lo)
    | None -> ());
    match (discipline, policy) with
    | Gao_rexford.Standard, None ->
      for d = lo to hi - 1 do
        let r = Solver.to_dest_with ws.sws topo d in
        for i = 0 to k - 1 do
          let s = Array.unsafe_get src_arr i in
          if s <> d && Solver.reachable r s then begin
            let acc = Array.unsafe_get ws.accs i in
            ws_record_path ws (stream_route r acc d s 0)
          end
        done
      done
    | ( ( Gao_rexford.Standard | Gao_rexford.Class_only | Gao_rexford.Diverse
        | Gao_rexford.Arbitrary ),
        _ ) ->
      for d = lo to hi - 1 do
        (* Sibling structures can sit outside the Gao-Rexford safety
           theorem; a destination with no stable solution is skipped
           (its routes are simply absent from every sampled P-graph)
           rather than aborting the whole sweep. *)
        match
          Stable.to_dest_with ws.stws ~discipline ?policy ~max_rounds:512
            topo d
        with
        | r ->
          for i = 0 to k - 1 do
            let s = Array.unsafe_get src_arr i in
            if s <> d then begin
              let hops = Stable.path_len r s in
              if hops >= 0 then begin
                ws_record_path ws hops;
                let acc = Array.unsafe_get ws.accs i in
                Stable.iter_links r s (Pgraph.Traversals.add acc ~dest:d)
              end
            end
          done
        | exception Stable.Diverged -> ()
      done
  in
  let stream_hint = Topology.num_links topo / 2 in
  let merged =
    Array.init k (fun _ -> Pgraph.Traversals.create ~hint:stream_hint)
  in
  Pool.parallel_fold_ranges
    ~create:(fun () ->
      let ams =
        match metrics with
        | Some _ -> Some (Obs.Metrics.create ())
        | None -> None
      in
      { sws = Solver.create_workspace ();
        stws = Stable.create_workspace ();
        accs =
          Array.init k (fun _ -> Pgraph.Traversals.create ~hint:stream_hint);
        ams;
        am_dests =
          Option.map (fun m -> Obs.Metrics.counter m "static.dests") ams;
        am_paths =
          Option.map (fun m -> Obs.Metrics.counter m "static.paths") ams;
        am_plen =
          Option.map
            (fun m ->
              Obs.Metrics.histogram m ~buckets:path_len_buckets
                "static.path_len")
            ams })
    ~merge:(fun () ws ->
      (* Counter and histogram merges commute, so the merged registry is
         independent of how the pool partitioned the destinations. *)
      (match (metrics, ws.ams) with
      | Some dst, Some m -> Obs.Metrics.merge_into ~dst m
      | _ -> ());
      for i = 0 to k - 1 do
        Pgraph.Traversals.merge ~into:merged.(i) ws.accs.(i)
      done)
    ~init:() n body;
  let total = stats_zero () in
  (* The statistics pass runs on the calling domain, after the pool
     fold: one scratch per call, never shared between concurrent
     analyses. *)
  let scratch = Permission_list.Scratch.create () in
  Array.iter (record_stats ~scratch total) merged;
  stats_finalize ~num_sources:k total

type link_overhead = {
  link_id : int;
  bgp_units : int;
  centaur_units : int;
}

(* Route classes seen on a (link, endpoint) over the affected
   destinations, as a 3-bit mask (customer / peer / provider routes; the
   endpoint is never the destination of its own route). *)
let class_bit = function
  | Cust -> 1
  | Peer_r -> 2
  | Prov -> 4
  | Origin -> 0

(* Per-domain scratch for the overhead sweep: solver workspace plus
   dense per-link accumulators. [masks] holds one class mask per
   (link, endpoint): slot [2 * link_id] for the link's [a] side,
   [2 * link_id + 1] for [b]. *)
type overhead_ws = {
  o_sws : Solver.workspace;
  o_bgp : int array;
  o_masks : int array;
}

(* One CSR pass per routed node [x]: locates x's selected link (the slot
   whose neighbor is the next hop [y]) and counts the other up sessions
   the route was exportable on. Result packed as
   [((link_id + 1) << 32) | sessions] — one immediate int, not a tuple —
   and the function is top-level so no closure is allocated per node
   (this scan runs n times per destination). *)
let rec overhead_scan nbr rel lnk up y cls k hi_k link_id cnt =
  if k > hi_k then (((link_id + 1) lsl 32) lor cnt)
  else if not (Array.unsafe_get up (Array.unsafe_get lnk k)) then
    overhead_scan nbr rel lnk up y cls (k + 1) hi_k link_id cnt
  else begin
    let nb = Array.unsafe_get nbr k in
    if nb = y then
      overhead_scan nbr rel lnk up y cls (k + 1) hi_k
        (Array.unsafe_get lnk k) cnt
    else if
      Gao_rexford.exportable ~cls
        ~to_role:(Topology.rel_of_code (Array.unsafe_get rel k))
    then overhead_scan nbr rel lnk up y cls (k + 1) hi_k link_id (cnt + 1)
    else overhead_scan nbr rel lnk up y cls (k + 1) hi_k link_id cnt
  end

let immediate_overhead ?dests ?prefixes topo =
  let n = Topology.num_nodes topo in
  let dests =
    match dests with Some ds -> ds | None -> List.init n (fun i -> i)
  in
  let weight d =
    match prefixes with None -> 1 | Some t -> Prefix.count t d
  in
  let num_links = Topology.num_links topo in
  let dest_arr = Array.of_list dests in
  (* One solver run per destination, fanned out across the pool in
     destination batches; each domain accumulates into its own flat
     per-link BGP unit counts and (link, endpoint) class masks. Merging
     is addition and bitwise-or — commutative — so the merged totals
     equal the sequential single-table accumulation. The inner loop
     runs directly on the CSR adjacency: one pass per routed node both
     locates its selected link (no tuple-keyed hash lookup) and counts
     the sessions the route was exportable on. *)
  let adj = Topology.adj topo in
  let off = adj.Topology.adj_off and nbr = adj.Topology.adj_nbr
  and rel = adj.Topology.adj_rel and lnk = adj.Topology.adj_link
  and up = adj.Topology.adj_up in
  let body ws ~lo ~hi =
    for di = lo to hi - 1 do
      let d = dest_arr.(di) in
      let r = Solver.to_dest_with ws.o_sws topo d in
      for x = 0 to n - 1 do
        let y = Solver.next_hop_id r x in
        if y >= 0 then begin
          let cls = Solver.class_raw r x in
          (* BGP: x withdraws its route to d — one update per prefix d
             announces — on every session it had exported the route
             on. *)
          let res = overhead_scan nbr rel lnk up y cls off.(x)
              (off.(x + 1) - 1) (-1) 0 in
          let link_id = (res lsr 32) - 1 and cnt = res land 0xFFFFFFFF in
          if link_id < 0 then
            invalid_arg "Static.immediate_overhead: broken route";
          ws.o_bgp.(link_id) <- ws.o_bgp.(link_id) + (cnt * weight d);
          let link = Topology.link topo link_id in
          let mi = (2 * link_id) + if link.Topology.a = x then 0 else 1 in
          ws.o_masks.(mi) <- ws.o_masks.(mi) lor class_bit cls
        end
      done
    done
  in
  let bgp = Array.make num_links 0 in
  let class_masks = Array.make (2 * num_links) 0 in
  Pool.parallel_fold_ranges
    ~create:(fun () ->
      { o_sws = Solver.create_workspace ();
        o_bgp = Array.make num_links 0;
        o_masks = Array.make (2 * num_links) 0 })
    ~merge:(fun () ws ->
      for link_id = 0 to num_links - 1 do
        bgp.(link_id) <- bgp.(link_id) + ws.o_bgp.(link_id)
      done;
      for mi = 0 to (2 * num_links) - 1 do
        class_masks.(mi) <- class_masks.(mi) lor ws.o_masks.(mi)
      done)
    ~init:() (Array.length dest_arr) body;
  let centaur = Array.make num_links 0 in
  for link_id = 0 to num_links - 1 do
    let link = Topology.link topo link_id in
    for side = 0 to 1 do
      let mask = class_masks.((2 * link_id) + side) in
      if mask <> 0 then begin
        let x = if side = 0 then link.Topology.a else link.Topology.b in
        let y = if side = 0 then link.Topology.b else link.Topology.a in
        (* Centaur: x withdraws the single failed link on every session
           whose exported view contained it — i.e. every neighbor some
           affected class was exportable to. *)
        Topology.iter_neighbors topo x (fun nb role _ ->
            if nb <> y then
              let visible =
                List.exists
                  (fun c ->
                    mask land class_bit c <> 0
                    && Gao_rexford.exportable ~cls:c ~to_role:role)
                  [ Cust; Peer_r; Prov ]
              in
              if visible then centaur.(link_id) <- centaur.(link_id) + 1)
      end
    done
  done;
  Array.init num_links (fun link_id ->
      { link_id; bgp_units = bgp.(link_id); centaur_units = centaur.(link_id) })

(* One record per source, sharded by source across the pool: each domain
   reduces its sources straight into private totals (a record is dropped
   as soon as its statistics are read off), and the totals are summed —
   commutatively — on the way down. *)
let analyze_vf topo ~sources =
  if sources = [] then invalid_arg "Static.analyze_vf: empty source list";
  let src_arr = Array.of_list sources in
  let hint = Topology.num_nodes topo in
  let total = stats_zero () in
  Pool.parallel_fold_ranges
    ~create:(fun () -> (stats_zero (), Permission_list.Scratch.create ()))
    ~merge:(fun () (ws, _) -> stats_add_into ~into:total ws)
    ~init:() (Array.length src_arr)
    (fun (ws, scratch) ~lo ~hi ->
      for i = lo to hi - 1 do
        let r = Pgraph.Traversals.create ~hint in
        List.iter (Pgraph.Traversals.add_path r)
          (Vf_paths.path_set (Vf_paths.from_source topo ~src:src_arr.(i)));
        record_stats ~scratch ws r
      done);
  stats_finalize ~num_sources:(Array.length src_arr) total
