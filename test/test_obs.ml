(* Observability layer: the trace ring and its JSONL/digest round-trips,
   the metrics-merge algebra (associative, commutative, empty registry
   as zero — the law that makes pool-parallel aggregation independent of
   scheduling), the domain-invariance of Static.analyze's registry, the
   invariant checker both as an oracle on real runs and as a detector of
   seeded corruptions. The golden fig-2a trace digest is checked by
   gen_trace_baseline.ml's runtest rule. *)

module T = Obs.Trace
module M = Obs.Metrics

(* --- trace ring --- *)

let test_disabled_sink () =
  Alcotest.(check bool) "none is disabled" false (T.enabled T.none);
  T.emit T.none (T.Batch_begin { node = 0 });
  Alcotest.(check int) "emit on none buffers nothing" 0 (T.length T.none);
  Alcotest.(check int) "none drops nothing" 0 (T.dropped T.none)

let test_ring_eviction () =
  let tr = T.create ~capacity:4 () in
  Alcotest.(check bool) "created enabled" true (T.enabled tr);
  for i = 0 to 5 do
    T.set_now tr (float_of_int i);
    T.emit tr (T.Mark_dirty { node = i; dest = -1 })
  done;
  Alcotest.(check int) "capacity bounds the buffer" 4 (T.length tr);
  Alcotest.(check int) "evictions counted" 2 (T.dropped tr);
  (match T.events tr with
  | [| (t0, T.Mark_dirty { node = 2; _ }); _; _; (t3, _) |] ->
    Alcotest.(check (float 0.0)) "oldest survivor stamped" 2.0 t0;
    Alcotest.(check (float 0.0)) "newest stamped" 5.0 t3
  | _ -> Alcotest.fail "expected the last four marks, oldest first");
  T.clear tr;
  Alcotest.(check int) "clear empties" 0 (T.length tr);
  Alcotest.(check int) "clear resets dropped" 0 (T.dropped tr);
  T.emit tr (T.Mark_dirty { node = 0; dest = -1 });
  match T.events tr with
  | [| (t, _) |] -> Alcotest.(check (float 0.0)) "clear keeps now" 5.0 t
  | _ -> Alcotest.fail "expected the one mark emitted after clear"

(* One event per variant, with assorted field values. *)
let specimen_events =
  [ (0.0, T.Link_state { link_id = 3; a = 1; b = 2; up = false });
    (1.25, T.Link_flip { link_id = 0; a = 0; b = 9; up = true });
    (2.5, T.Msg_send { src = 4; dst = 7; link_id = 11; units = 3 });
    (2.5, T.Msg_deliver { src = 4; dst = 7; link_id = 11 });
    (3.0, T.Msg_loss { src = 7; dst = 4; link_id = 11; dead_link = true });
    (3.0, T.Msg_loss { src = 7; dst = 4; link_id = 11; dead_link = false });
    (4.125, T.Timer_set { node = 2; key = 5; fire_at = 34.125 });
    (34.125, T.Timer_fire { node = 2; key = 5 });
    (34.125, T.Batch_begin { node = 2 });
    (34.125, T.Batch_end { node = 2 });
    (35.0, T.Mark_dirty { node = 1; dest = -1 });
    (35.0, T.Mark_dirty { node = 1; dest = 42 });
    (35.0, T.Recompute { node = 1; dirty = 2; changed = 1 });
    (35.0, T.Rib_change { node = 1; dest = 42; withdrawn = true });
    ( 35.0,
      T.Rib_out { node = 1; peer = 6; dest = 42; withdraw = false;
                  path_sig = 987654321 } ) ]

let test_jsonl_round_trip () =
  List.iter
    (fun (t, ev) ->
      let line = T.event_to_json (t, ev) in
      match T.event_of_json line with
      | Some (t', ev') ->
        Alcotest.(check (float 0.0)) ("timestamp of " ^ line) t t';
        Alcotest.(check bool) ("payload of " ^ line) true (ev = ev')
      | None -> Alcotest.failf "failed to parse own output: %s" line)
    specimen_events;
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (T.event_of_json bad = None))
    [ ""; "{}"; "not json"; {|{"t":1.0,"ev":"warp_core_breach"}|};
      {|{"t":"x","ev":"timer_fire","node":0,"key":1}|} ]

(* The exact JSONL line and pretty-printed text of each specimen, in
   order: the committed wire format, [link_state] included. *)
let specimen_renderings =
  [ ( {|{"t":0.000000,"ev":"link_state","link":3,"a":1,"b":2,"up":false}|},
      "[     0.000] link_state  link=3 a=1 b=2 up=false" );
    ( {|{"t":1.250000,"ev":"link_flip","link":0,"a":0,"b":9,"up":true}|},
      "[     1.250] link_flip   link=0 a=0 b=9 up=true" );
    ( {|{"t":2.500000,"ev":"msg_send","src":4,"dst":7,"link":11,"units":3}|},
      "[     2.500] msg_send    src=4 dst=7 link=11 units=3" );
    ( {|{"t":2.500000,"ev":"msg_deliver","src":4,"dst":7,"link":11}|},
      "[     2.500] msg_deliver src=4 dst=7 link=11" );
    ( {|{"t":3.000000,"ev":"msg_loss","src":7,"dst":4,"link":11,"dead_link":true}|},
      "[     3.000] msg_loss    src=7 dst=4 link=11 dead_link=true" );
    ( {|{"t":3.000000,"ev":"msg_loss","src":7,"dst":4,"link":11,"dead_link":false}|},
      "[     3.000] msg_loss    src=7 dst=4 link=11 dead_link=false" );
    ( {|{"t":4.125000,"ev":"timer_set","node":2,"key":5,"fire_at":34.125000}|},
      "[     4.125] timer_set   node=2 key=5" );
    ( {|{"t":34.125000,"ev":"timer_fire","node":2,"key":5}|},
      "[    34.125] timer_fire  node=2 key=5" );
    ( {|{"t":34.125000,"ev":"batch_begin","node":2}|},
      "[    34.125] batch_begin node=2" );
    ( {|{"t":34.125000,"ev":"batch_end","node":2}|},
      "[    34.125] batch_end   node=2" );
    ( {|{"t":35.000000,"ev":"mark_dirty","node":1,"dest":-1}|},
      "[    35.000] mark_dirty  node=1 dest=-1" );
    ( {|{"t":35.000000,"ev":"mark_dirty","node":1,"dest":42}|},
      "[    35.000] mark_dirty  node=1 dest=42" );
    ( {|{"t":35.000000,"ev":"recompute","node":1,"dirty":2,"changed":1}|},
      "[    35.000] recompute   node=1 dirty=2 changed=1" );
    ( {|{"t":35.000000,"ev":"rib_change","node":1,"dest":42,"withdrawn":true}|},
      "[    35.000] rib_change  node=1 dest=42 withdrawn=true" );
    ( {|{"t":35.000000,"ev":"rib_out","node":1,"peer":6,"dest":42,"withdraw":false,"sig":987654321}|},
      "[    35.000] rib_out     node=1 peer=6 dest=42 withdraw=false \
       sig=987654321" ) ]

let test_renderings_pinned () =
  List.iter2
    (fun e (json, pp) ->
      Alcotest.(check string) "jsonl line" json (T.event_to_json e);
      Alcotest.(check string) "pretty-printed" pp
        (Format.asprintf "%a" T.pp_event e))
    specimen_events specimen_renderings

let fill trace evs =
  List.iter
    (fun (t, ev) ->
      T.set_now trace t;
      T.emit trace ev)
    evs

let test_digest_timestamp_tolerant () =
  let a = T.create () and b = T.create () in
  fill a specimen_events;
  (* Same sequence, uniformly shifted clock. *)
  fill b (List.map (fun (t, ev) -> (t +. 1000.0, ev)) specimen_events);
  Alcotest.(check string)
    "digest ignores timestamps" (T.digest a) (T.digest b);
  (* ...but not the event payloads. *)
  let c = T.create () in
  fill c ((40.0, T.Batch_begin { node = 99 }) :: specimen_events);
  Alcotest.(check bool) "digest sees payloads" true (T.digest a <> T.digest c)

let test_digest_of_parsed_jsonl () =
  let tr = T.create () in
  fill tr specimen_events;
  let reparsed =
    Array.map
      (fun e ->
        match T.event_of_json (T.event_to_json e) with
        | Some e' -> e'
        | None -> Alcotest.fail "round-trip lost an event")
      (T.events tr)
  in
  Alcotest.(check string)
    "digest survives the JSONL round-trip" (T.digest tr)
    (T.digest_events reparsed)

(* --- metrics: instruments --- *)

let test_instruments () =
  let m = M.create () in
  let c = M.counter m "c" in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (M.value c);
  Alcotest.(check int) "counter is shared by name" 5 (M.value (M.counter m "c"));
  let h = M.histogram m "h" in
  M.observe h 0.3;
  M.observe h 7.0;
  Alcotest.(check int) "histogram counts" 2 (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "histogram sums" 7.3 (M.histogram_sum h);
  (match M.counter m "h" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind conflict must raise");
  (match M.histogram m ~buckets:[| 1.0; 2.0 |] "h" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket conflict must raise")

(* --- metrics: merge algebra --- *)

(* Registries are generated from op lists over kind-disjoint name pools
   (a name never changes kind, matching real usage — a cross-kind merge
   is a programming error that raises). Values are quarter-integers so
   float addition is exact and the laws hold to equality. *)
type op = C of int * int | H of int * float

let reg ops =
  let m = M.create () in
  List.iter
    (fun op ->
      match op with
      | C (i, k) -> M.add (M.counter m (Printf.sprintf "c%d" i)) k
      | H (i, v) -> M.observe (M.histogram m (Printf.sprintf "h%d" i)) v)
    ops;
  m

let op_gen =
  QCheck.Gen.(
    let quarter = map (fun n -> float_of_int n /. 4.0) (int_bound 400) in
    oneof
      [ map2 (fun i k -> C (i, k)) (int_bound 2) (int_bound 100);
        map2 (fun i v -> H (i, v)) (int_bound 1) quarter ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(list_size (int_bound 20) op_gen)

let merge_associative =
  QCheck.Test.make ~name:"metrics merge is associative"
    ~count:(Helpers.qcheck_count 100)
    QCheck.(triple ops_arb ops_arb ops_arb)
    (fun (a, b, c) ->
      let ra = reg a and rb = reg b and rc = reg c in
      M.equal (M.merge (M.merge ra rb) rc) (M.merge ra (M.merge rb rc)))

let merge_commutative =
  QCheck.Test.make ~name:"metrics merge is commutative"
    ~count:(Helpers.qcheck_count 100)
    QCheck.(pair ops_arb ops_arb)
    (fun (a, b) ->
      let ra = reg a and rb = reg b in
      M.equal (M.merge ra rb) (M.merge rb ra)
      && M.to_json (M.merge ra rb) = M.to_json (M.merge rb ra))

let merge_zero =
  QCheck.Test.make ~name:"empty registry is the merge zero"
    ~count:(Helpers.qcheck_count 100)
    ops_arb
    (fun a ->
      let ra = reg a in
      M.equal (M.merge ra (M.create ())) ra
      && M.equal (M.merge (M.create ()) ra) ra)

(* Static.analyze's registry must not depend on how the pool partitioned
   the destination sweep — sequential and 4-domain runs byte-agree. *)
let analyze_domain_invariant =
  QCheck.Test.make ~name:"Static.analyze metrics: 1 domain == 4 domains"
    ~count:(Helpers.qcheck_count 3)
    QCheck.(int_bound 1000)
    (fun seed ->
      let topo = Helpers.random_as_topology ~seed ~n:40 in
      let sources = [ 0; 7; 19; 33 ] in
      let at domains =
        let m = M.create () in
        Pool.with_size domains (fun () ->
            ignore (Centaur.Static.analyze topo ~metrics:m ~sources));
        m
      in
      let m1 = at 1 and m4 = at 4 in
      M.equal m1 m4 && M.to_json m1 = M.to_json m4)

(* --- checker: seeded corruptions --- *)

let first_invariant evs =
  let r = Obs.Check.run_events (Array.of_list evs) in
  match r.Obs.Check.violations with
  | [] -> "none"
  | v :: _ -> v.Obs.Check.invariant

let check_catches () =
  let cases =
    [ ( "monotone-clock",
        [ (1.0, T.Mark_dirty { node = 0; dest = 1 });
          (0.5, T.Mark_dirty { node = 0; dest = 2 }) ] );
      ( "link-state",
        [ (0.0, T.Link_flip { link_id = 0; a = 0; b = 1; up = false });
          (1.0, T.Msg_send { src = 0; dst = 1; link_id = 0; units = 1 }) ] );
      ( "conservation",
        [ (1.0, T.Msg_deliver { src = 0; dst = 1; link_id = 0 }) ] );
      ( "batch-nesting",
        [ (1.0, T.Batch_begin { node = 1 });
          (1.0, T.Batch_begin { node = 2 }) ] );
      ( "batch-nesting",
        [ (1.0, T.Batch_begin { node = 1 });
          (1.0, T.Mark_dirty { node = 3; dest = 0 });
          (1.0, T.Batch_end { node = 1 }) ] );
      ( "recompute-implies-dirty",
        [ (1.0, T.Recompute { node = 4; dirty = 3; changed = 1 }) ] );
      ( "no-redundant-export",
        [ ( 1.0,
            T.Rib_out { node = 0; peer = 1; dest = 5; withdraw = false;
                        path_sig = 7 } );
          ( 2.0,
            T.Rib_out { node = 0; peer = 1; dest = 5; withdraw = false;
                        path_sig = 7 } ) ] );
      ("timer-fidelity", [ (1.0, T.Timer_fire { node = 0; key = 3 }) ]) ]
  in
  List.iter
    (fun (expected, evs) ->
      Alcotest.(check string)
        (Printf.sprintf "detects %s" expected)
        expected (first_invariant evs))
    cases;
  (* The no-redundant-export channel resets when the session flips. *)
  let flip_between =
    [ ( 1.0,
        T.Rib_out { node = 0; peer = 1; dest = 5; withdraw = false;
                    path_sig = 7 } );
      (2.0, T.Link_flip { link_id = 9; a = 0; b = 1; up = true });
      ( 3.0,
        T.Rib_out { node = 0; peer = 1; dest = 5; withdraw = false;
                    path_sig = 7 } ) ]
  in
  Alcotest.(check string) "session flip resets export history" "none"
    (first_invariant flip_between);
  (* Changed exports are never flagged. *)
  let changed =
    [ ( 1.0,
        T.Rib_out { node = 0; peer = 1; dest = 5; withdraw = false;
                    path_sig = 7 } );
      ( 2.0,
        T.Rib_out { node = 0; peer = 1; dest = 5; withdraw = true;
                    path_sig = 0 } ) ]
  in
  Alcotest.(check string) "changed export passes" "none"
    (first_invariant changed)

let test_truncated_degrades () =
  (* With drops, stateful checks are skipped but batch shape still runs. *)
  let evs =
    [| (1.0, T.Msg_deliver { src = 0; dst = 1; link_id = 0 });
       (2.0, T.Batch_begin { node = 1 });
       (2.0, T.Batch_begin { node = 2 }) |]
  in
  let r = Obs.Check.run_events ~dropped:5 evs in
  Alcotest.(check bool) "flagged truncated" true r.Obs.Check.truncated;
  Alcotest.(check (list string))
    "only the local violation" [ "batch-nesting" ]
    (List.map
       (fun v -> v.Obs.Check.invariant)
       r.Obs.Check.violations)

let suite =
  [ Alcotest.test_case "disabled sink is inert" `Quick test_disabled_sink;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "digest timestamp-tolerant" `Quick
      test_digest_timestamp_tolerant;
    Alcotest.test_case "digest of parsed jsonl" `Quick
      test_digest_of_parsed_jsonl;
    Alcotest.test_case "instruments" `Quick test_instruments;
    QCheck_alcotest.to_alcotest merge_associative;
    QCheck_alcotest.to_alcotest merge_commutative;
    QCheck_alcotest.to_alcotest merge_zero;
    QCheck_alcotest.to_alcotest analyze_domain_invariant;
    Alcotest.test_case "checker catches corruptions" `Quick check_catches;
    Alcotest.test_case "checker degrades when truncated" `Quick
      test_truncated_degrades;
    Alcotest.test_case "renderings pinned" `Quick test_renderings_pinned ]
