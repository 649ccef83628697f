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

let default_plist_fp_rate = 0.01

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

(* Shared Table 4/5 aggregation over one P-graph per source, sharded by
   source across the pool: each domain reduces its sources straight into
   a private totals record (the P-graph itself is dropped as soon as its
   statistics are read off), and the records are summed — commutatively —
   on the way down. No per-source result list is ever materialized. *)
let aggregate ?(plist_fp_rate = default_plist_fp_rate) ~sources pgraph_of =
  let src_arr = Array.of_list sources in
  let total = stats_zero () in
  Pool.parallel_fold
    ~create:stats_zero
    ~merge:(fun () ws -> stats_add_into ~into:total ws)
    ~init:() (Array.length src_arr)
    (fun ws i ->
      let g = pgraph_of src_arr.(i) in
      ws.a_links <- ws.a_links + Pgraph.num_links g;
      List.iter
        (fun pl ->
          stats_add_plist ws
            ~entries:(Permission_list.num_entries pl)
            ~bytes:(Permission_list.compressed_size_bytes pl ~fp_rate:plist_fp_rate))
        (Pgraph.permission_lists g));
  stats_finalize ~num_sources:(Array.length src_arr) total

(* {2 Streamed per-source P-graph statistics}

   [analyze] never builds a P-graph per source. A source's statistics
   need only (a) its set of distinct P-graph links and (b), for links
   into multi-homed nodes, the (dest, next) traversals that make up the
   Permission List — so each (source, dest, path) is streamed link by
   link into a {!src_stream}: a flat link-key → chain-head table plus a
   packed-int traversal arena (value and chain-link arrays, grown
   geometrically). Nothing is kept per path; resident cost is two ints
   per traversal and one table slot per distinct link. *)

let pack_link ~parent ~child = (parent lsl 31) lor child
let link_child key = key land ((1 lsl 31) - 1)

(* A traversal is (dest, next-hop id) packed into one immediate int:
   dest in the high bits, next + 1 in the low 32 ([nexti = -1] = none,
   matching the solvers' allocation-free next-hop accessors). *)
let pack_trav ~dest ~nexti = (dest lsl 32) lor (nexti + 1)

let trav_dest v = v lsr 32

let trav_nexti v = (v land 0xFFFFFFFF) - 1

type src_stream = {
  heads : Flat_tbl.t; (* packed link -> head of its traversal chain *)
  mutable tv : int array; (* packed traversal values *)
  mutable tn : int array; (* next index in the link's chain; -1 ends *)
  mutable tlen : int;
}

(* [hint] sizes the link table and the traversal arena for an expected
   number of distinct links, so streaming at scale ramps up in one or
   two doublings instead of rehash-growing from 16 slots per source. *)
let stream_create ?(hint = 16) () =
  let hint = max 16 hint in
  { heads = Flat_tbl.create ~initial:(2 * hint) ();
    tv = Array.make hint 0;
    tn = Array.make hint 0;
    tlen = 0 }

let stream_push st key v =
  if st.tlen = Array.length st.tv then begin
    let cap = 2 * st.tlen in
    let tv = Array.make cap 0 and tn = Array.make cap 0 in
    Array.blit st.tv 0 tv 0 st.tlen;
    Array.blit st.tn 0 tn 0 st.tlen;
    st.tv <- tv;
    st.tn <- tn
  end;
  st.tv.(st.tlen) <- v;
  st.tn.(st.tlen) <- Flat_tbl.find_default st.heads key ~default:(-1);
  Flat_tbl.set st.heads key st.tlen;
  st.tlen <- st.tlen + 1

let stream_add st ~parent ~child ~dest ~nexti =
  stream_push st (pack_link ~parent ~child) (pack_trav ~dest ~nexti)

(* Chains are re-threaded into [into]'s arena; traversal order within a
   link is scheduling-dependent, which is fine — a Permission List is a
   set structure, insertion order never reaches the result. *)
let stream_merge ~into src =
  Flat_tbl.iter src.heads (fun key head ->
      let i = ref head in
      while !i >= 0 do
        stream_push into key src.tv.(!i);
        i := src.tn.(!i)
      done)

(* Fold one source's merged stream into the Table 4/5 totals: distinct
   links from the table size, in-degrees from a one-pass child count,
   and — only for links into multi-homed children — each Permission
   List's entry count and priced size, read off its traversal chain
   sorted in [scratch]. This is exactly [Pgraph.build_graph]'s pass 2
   without constructing the graph or its lists. *)
let stream_stats ~fp_rate ~scratch acc st =
  let num_links = Flat_tbl.length st.heads in
  acc.a_links <- acc.a_links + num_links;
  let indeg = Flat_tbl.create ~initial:(2 * num_links) () in
  Flat_tbl.iter st.heads (fun key _ ->
      ignore (Flat_tbl.add_to indeg (link_child key) 1));
  Flat_tbl.iter st.heads (fun key head ->
      if Flat_tbl.find_default indeg (link_child key) ~default:0 > 1 then begin
        Permission_list.Scratch.clear scratch;
        let i = ref head in
        while !i >= 0 do
          let v = st.tv.(!i) in
          Permission_list.Scratch.push scratch ~dest:(trav_dest v)
            ~next:(trav_nexti v);
          i := st.tn.(!i)
        done;
        stats_add_plist acc
          ~entries:(Permission_list.Scratch.num_entries scratch)
          ~bytes:(Permission_list.Scratch.compressed_size_bytes scratch ~fp_rate)
      end)

(* Per-domain scratch for the per-destination sweep: reusable solver
   workspaces (three-phase and fixpoint) plus one stream per requested
   source, and (when metrics are requested) a domain-private registry
   merged after the sweep — with its instrument handles resolved once
   at workspace creation, not looked up by name per destination. *)
type analyze_ws = {
  sws : Solver.workspace;
  stws : Stable.workspace;
  accs : src_stream array;
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
    stream_add acc ~parent:x ~child:y ~dest:d ~nexti:(Solver.next_hop_id r y);
    stream_route r acc d y (hops + 1)
  end

let analyze ?(discipline = Gao_rexford.Standard) ?policy
    ?(plist_fp_rate = default_plist_fp_rate) ?metrics topo ~sources =
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
                Stable.iter_links r s (fun ~parent ~child ~next ->
                    stream_add acc ~parent ~child ~dest:d ~nexti:next)
              end
            end
          done
        | exception Stable.Diverged -> ()
      done
  in
  let stream_hint = Topology.num_links topo / 2 in
  let merged = Array.init k (fun _ -> stream_create ~hint:stream_hint ()) in
  Pool.parallel_fold_ranges
    ~create:(fun () ->
      let ams =
        match metrics with
        | Some _ -> Some (Obs.Metrics.create ())
        | None -> None
      in
      { sws = Solver.create_workspace ();
        stws = Stable.create_workspace ();
        accs = Array.init k (fun _ -> stream_create ~hint:stream_hint ());
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
        stream_merge ~into:merged.(i) ws.accs.(i)
      done)
    ~init:() n body;
  let total = stats_zero () in
  (* The statistics pass runs on the calling domain, after the pool
     fold: one scratch per call, never shared between concurrent
     analyses. *)
  let scratch = Permission_list.Scratch.create () in
  Array.iter (stream_stats ~fp_rate:plist_fp_rate ~scratch total) merged;
  stats_finalize ~num_sources:k total

(* Reference implementation: bag every (dest, path) per source, build a
   full P-graph per source, aggregate. Semantically identical to
   [analyze] (the QCheck suite pins this down) but materializes the
   n × sources path matrix — kept for cross-checking, not for scale. *)
let analyze_materialized ?(discipline = Gao_rexford.Standard) ?policy
    ?(plist_fp_rate = default_plist_fp_rate) topo ~sources =
  if sources = [] then
    invalid_arg "Static.analyze_materialized: empty source list";
  let policy = Policy.configured policy in
  let n = Topology.num_nodes topo in
  let src_arr = Array.of_list sources in
  let k = Array.length src_arr in
  let merged = Array.make k [] in
  Pool.parallel_fold
    ~create:(fun () -> (Solver.create_workspace (), Array.make k []))
    ~merge:(fun () (_, bags) ->
      for i = 0 to k - 1 do
        merged.(i) <- List.rev_append bags.(i) merged.(i)
      done)
    ~init:() n
    (fun (sws, bags) d ->
      let path_of =
        match (discipline, policy) with
        | Gao_rexford.Standard, None ->
          let r = Solver.to_dest_with sws topo d in
          fun s -> Solver.path r s
        | _ -> (
          match Stable.to_dest ~discipline ?policy ~max_rounds:512 topo d with
          | r -> fun s -> Stable.path r s
          | exception Stable.Diverged -> fun _ -> None)
      in
      for i = 0 to k - 1 do
        let s = Array.unsafe_get src_arr i in
        if s <> d then
          match path_of s with
          | None -> ()
          | Some p -> bags.(i) <- (d, p) :: bags.(i)
      done);
  let bag_of = Array.make k [] in
  for i = 0 to k - 1 do
    bag_of.(i) <-
      List.sort (fun (d1, _) (d2, _) -> Int.compare d2 d1) merged.(i)
      |> List.map snd
  done;
  let idx = Hashtbl.create k in
  Array.iteri (fun i s -> Hashtbl.replace idx s i) src_arr;
  aggregate ~plist_fp_rate ~sources (fun s ->
      Pgraph.of_paths ~root:s bag_of.(Hashtbl.find idx s))

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

let analyze_vf ?plist_fp_rate topo ~sources =
  if sources = [] then invalid_arg "Static.analyze_vf: empty source list";
  aggregate ?plist_fp_rate ~sources (fun s ->
      let r = Vf_paths.from_source topo ~src:s in
      Pgraph.of_paths ~root:s (Vf_paths.path_set r))
