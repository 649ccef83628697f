(* Incremental P-graph builder (the §4.3 steady-phase bookkeeping):
   counters, Permission List appearance/disappearance, delta coalescing,
   and the flush oracle — replaying every flushed delta onto an empty
   P-graph must reproduce BuildGraph of the installed paths. *)

open Centaur

(* The graph the builder's flushes must add up to: [Pgraph.of_paths]
   over its installed paths, the root's one-node path aside, marked at
   every destination it holds (the root's own mark included). *)
let snapshot b =
  let dests = Builder.dests b in
  let g =
    Pgraph.of_paths ~root:(Builder.root b)
      (List.filter_map
         (fun dest ->
           match Builder.path_of b ~dest with
           | _ :: _ :: _ as p -> Some p
           | [ _ ] | [] -> None)
         dests)
  in
  List.iter (Pgraph.mark_dest g) dests;
  g

let test_counters_track_use () =
  let b = Builder.create ~root:0 ~nodes:10 in
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  Builder.set_path b ~dest:3 [ 0; 1; 3 ];
  Alcotest.(check int) "shared link counted twice" 2
    (Builder.counter b ~parent:0 ~child:1);
  Builder.set_path b ~dest:3 [];
  Alcotest.(check int) "counter decremented" 1
    (Builder.counter b ~parent:0 ~child:1);
  Builder.set_path b ~dest:2 [];
  Alcotest.(check int) "link gone at zero (§4.3)" 0
    (Builder.counter b ~parent:0 ~child:1)

let test_flush_delta_roundtrip_sequence () =
  (* The oracle from the interface: apply every flushed delta in order to
     an empty graph; at each flush the replica equals the snapshot. The
     root's own mark comes and goes like any other destination. *)
  let b = Builder.create ~root:0 ~nodes:10 in
  let replica = Pgraph.create ~nodes:10 ~root:0 in
  let check_replica step =
    Pgraph.apply replica (Builder.flush_delta b);
    if not (Pgraph.equal replica (snapshot b)) then
      Alcotest.failf "replica diverged at step %s" step
  in
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  Builder.set_path b ~dest:0 [ 0 ];
  check_replica "first path";
  Builder.set_path b ~dest:3 [ 0; 2; 3 ];
  Builder.set_path b ~dest:4 [ 0; 1; 4 ];
  check_replica "two more paths";
  (* Create multi-homing: 4 reached via 2 now. *)
  Builder.set_path b ~dest:4 [ 0; 2; 4 ];
  check_replica "reroute";
  (* And collapse everything. *)
  Builder.set_path b ~dest:2 [];
  Builder.set_path b ~dest:3 [];
  Builder.set_path b ~dest:4 [];
  Builder.set_path b ~dest:0 [];
  check_replica "teardown";
  Alcotest.(check int) "empty at end" 0 (Pgraph.num_links replica);
  Alcotest.(check (list int)) "no mark left" [] (Pgraph.dests replica)

let test_plist_appears_on_multihoming () =
  let b = Builder.create ~root:0 ~nodes:10 in
  Builder.set_path b ~dest:3 [ 0; 1; 3 ];
  ignore (Builder.flush_delta b);
  (* Second parent for node 3 appears: both in-links must be
     re-announced with Permission Lists. *)
  Builder.set_path b ~dest:4 [ 0; 2; 3; 4 ];
  let delta = Builder.flush_delta b in
  let with_pl =
    List.filter
      (fun (_, _, pl) -> not (Permission_list.is_empty pl))
      delta.Pgraph.add_links
  in
  Alcotest.(check int) "both in-links of 3 carry PLs" 2
    (List.length with_pl);
  (* Multi-homing ends: the PL must be withdrawn (link re-announced
     bare). *)
  Builder.set_path b ~dest:4 [];
  let delta = Builder.flush_delta b in
  let bare_reannounce =
    List.filter
      (fun (p, c, pl) -> p = 1 && c = 3 && Permission_list.is_empty pl)
      delta.Pgraph.add_links
  in
  Alcotest.(check int) "PL dropped when single-homed again" 1
    (List.length bare_reannounce)

let test_no_delta_when_nothing_changes () =
  let b = Builder.create ~root:0 ~nodes:10 in
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  ignore (Builder.flush_delta b);
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  let delta = Builder.flush_delta b in
  Alcotest.(check bool) "idempotent set_path" true
    (Pgraph.delta_is_empty delta)

let test_cancelling_changes_coalesce () =
  let b = Builder.create ~root:0 ~nodes:10 in
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  ignore (Builder.flush_delta b);
  (* Change and change back between flushes: nothing on the wire. *)
  Builder.set_path b ~dest:2 [ 0; 3; 2 ];
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  let delta = Builder.flush_delta b in
  Alcotest.(check bool) "cancelled out" true (Pgraph.delta_is_empty delta)

(* The exporter forces its own prefix onto the wire as the root's
   one-node path: a mark and no link. *)
let test_force_dest () =
  let b = Builder.create ~root:7 ~nodes:8 in
  Builder.set_path b ~dest:7 [ 7 ];
  let delta = Builder.flush_delta b in
  Alcotest.(check (list int)) "self marked" [ 7 ] delta.Pgraph.add_dests;
  Alcotest.(check int) "no link" 0 (List.length delta.Pgraph.add_links);
  Alcotest.(check (list int)) "dests include forced" [ 7 ] (Builder.dests b);
  Builder.set_path b ~dest:7 [];
  Alcotest.(check (list int)) "withdrawn" [ 7 ]
    (Builder.flush_delta b).Pgraph.remove_dests

let test_set_path_validation () =
  let b = Builder.create ~root:0 ~nodes:10 in
  Alcotest.check_raises "wrong root"
    (Invalid_argument "Builder.set_path: path does not start at root")
    (fun () -> Builder.set_path b ~dest:2 [ 1; 2 ]);
  Alcotest.check_raises "dest mismatch"
    (Invalid_argument "Builder.set_path: path destination mismatch")
    (fun () -> Builder.set_path b ~dest:9 [ 0; 2 ]);
  Alcotest.check_raises "loop"
    (Invalid_argument "Builder.set_path: path has a loop") (fun () ->
      Builder.set_path b ~dest:2 [ 0; 1; 0; 2 ]);
  (* A one-node path is the root's own mark, and only that. *)
  Alcotest.check_raises "one-node path elsewhere"
    (Invalid_argument "Builder.set_path: path destination mismatch")
    (fun () -> Builder.set_path b ~dest:2 [ 0 ]);
  Alcotest.check_raises "other node's one-node path"
    (Invalid_argument "Builder.set_path: path does not start at root")
    (fun () -> Builder.set_path b ~dest:2 [ 2 ]);
  (* Ids index the builder's per-node state: [0, nodes) only. *)
  let out_of_range = Invalid_argument "Builder.set_path: node id out of range" in
  Alcotest.check_raises "dest = nodes" out_of_range (fun () ->
      Builder.set_path b ~dest:10 []);
  Alcotest.check_raises "negative dest" out_of_range (fun () ->
      Builder.set_path b ~dest:(-1) []);
  Alcotest.check_raises "path node = nodes" out_of_range (fun () ->
      Builder.set_path b ~dest:2 [ 0; 10; 2 ]);
  Alcotest.check_raises "negative path node" out_of_range (fun () ->
      Builder.set_path b ~dest:2 [ 0; -1; 2 ]);
  Alcotest.(check (list int)) "rejected calls leave nothing" [] (Builder.dests b);
  Alcotest.(check bool) "and queue nothing" true
    (Pgraph.delta_is_empty (Builder.flush_delta b))

let test_path_of () =
  let b = Builder.create ~root:0 ~nodes:10 in
  Builder.set_path b ~dest:2 [ 0; 1; 2 ];
  Alcotest.(check (list int)) "stored" [ 0; 1; 2 ] (Builder.path_of b ~dest:2);
  Alcotest.(check (list int)) "absent" [] (Builder.path_of b ~dest:9)

(* Randomized oracle: arbitrary set_path sequences, interleaved with
   flushes and wire invalidations, against the replay oracle and
   of_paths, the use counters included. The path shapes make 3 and 4
   reachable from two or three parents, so random input builds, changes
   and withdraws Permission Lists, and reroutes share prefixes and
   suffixes with the path they replace. *)
let shapes dest =
  [| [];
     [ 0; 1; dest ];
     [ 0; 2; dest ];
     [ 0; 1; 3; dest ];
     [ 0; 2; 3; dest ];
     [ 0; 1; 3; 4; dest ];
     [ 0; 2; 4; dest ];
     [ 0; 3; 4; dest ] |]

(* Every link a shape can use. *)
let all_links =
  List.sort_uniq compare
    (List.concat_map
       (fun k ->
         List.concat_map Helpers.path_links (Array.to_list (shapes (10 + k))))
       (List.init 9 Fun.id))

let builder_matches_of_paths =
  QCheck.Test.make
    ~name:"builder snapshot == of_paths of final selection"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 10) (int_bound 7)))
    (fun ops ->
      (* (0..8, shape): set dest 10+k to that shape or remove it;
         (9, _): flush; (10, _): invalidate the wire state. *)
      let b = Builder.create ~root:0 ~nodes:19 in
      let replica = Pgraph.create ~nodes:19 ~root:0 in
      let current = Hashtbl.create 8 in
      (* The use counters are the snapshot's traversal counters, link by
         link; a link out of the snapshot reads 0. *)
      let counters_match () =
        let g = snapshot b in
        List.for_all
          (fun (parent, child, d) ->
            Builder.counter b ~parent ~child = d.Pgraph.counter)
          (Pgraph.links g)
        && List.for_all
             (fun (parent, child) ->
               Pgraph.mem_link g ~parent ~child
               || Builder.counter b ~parent ~child = 0)
             all_links
      in
      let flush_checked () =
        Pgraph.apply replica (Builder.flush_delta b);
        Pgraph.equal replica (snapshot b)
        && Pgraph.delta_is_empty (Builder.flush_delta b)
        && counters_match ()
      in
      List.for_all
        (fun (op, choice) ->
          if op = 9 then flush_checked ()
          else if op = 10 then begin
            Builder.invalidate_wire b;
            true
          end
          else begin
            let dest = 10 + op in
            let path = (shapes dest).(choice) in
            (match path with
            | [] -> Hashtbl.remove current dest
            | p -> Hashtbl.replace current dest p);
            Builder.set_path b ~dest path;
            true
          end)
        ops
      && flush_checked ()
      &&
      let final_paths = Hashtbl.fold (fun _ p acc -> p :: acc) current [] in
      Pgraph.equal (snapshot b) (Pgraph.of_paths ~root:0 final_paths))

let suite =
  [ Alcotest.test_case "counters track use" `Quick test_counters_track_use;
    Alcotest.test_case "flush/replay oracle" `Quick
      test_flush_delta_roundtrip_sequence;
    Alcotest.test_case "PL appears on multi-homing" `Quick
      test_plist_appears_on_multihoming;
    Alcotest.test_case "no delta when unchanged" `Quick
      test_no_delta_when_nothing_changes;
    Alcotest.test_case "cancelling changes coalesce" `Quick
      test_cancelling_changes_coalesce;
    Alcotest.test_case "force dest" `Quick test_force_dest;
    Alcotest.test_case "set_path validation" `Quick test_set_path_validation;
    Alcotest.test_case "path_of" `Quick test_path_of;
    QCheck_alcotest.to_alcotest builder_matches_of_paths ]
