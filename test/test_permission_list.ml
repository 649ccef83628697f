(* Permission Lists: the per-dest-next encoding, its equivalence with
   the exhaustive per-path encoding (paper §4.1 / Claim 1), updates and
   compression. *)

open Centaur

let pl_of entries =
  List.fold_left
    (fun pl (dest, next) -> Permission_list.add pl ~dest ~next)
    Permission_list.empty entries

(* Reads over [entries]: every destination mentioned, ascending, and a
   destination's next hop (the smallest, should several entries name
   it). *)
let dests pl =
  List.sort_uniq compare (List.concat_map snd (Permission_list.entries pl))

let next_for pl ~dest =
  List.find_map
    (fun (next, ds) -> if List.mem dest ds then Some next else None)
    (Permission_list.entries pl)

let remove_dest pl ~dest = Permission_list.filter_dests pl (fun d -> d <> dest)

let test_empty () =
  Alcotest.(check bool) "empty" true
    (Permission_list.is_empty Permission_list.empty);
  Alcotest.(check bool) "permits nothing" false
    (Permission_list.permit Permission_list.empty ~dest:1 ~next:(-1));
  Alcotest.(check int) "no entries" 0
    (Permission_list.num_entries Permission_list.empty)

let test_add_permit () =
  let pl = pl_of [ (5, 2); (6, 2); (7, -1) ] in
  Alcotest.(check bool) "permits 5 via 2" true
    (Permission_list.permit pl ~dest:5 ~next:2);
  Alcotest.(check bool) "permits 7 terminal" true
    (Permission_list.permit pl ~dest:7 ~next:(-1));
  Alcotest.(check bool) "wrong next" false
    (Permission_list.permit pl ~dest:5 ~next:3);
  Alcotest.(check bool) "wrong dest" false
    (Permission_list.permit pl ~dest:9 ~next:2);
  Alcotest.(check bool) "dest with terminal next mismatch" false
    (Permission_list.permit pl ~dest:5 ~next:(-1))

let test_grouping () =
  (* Destinations sharing a next hop collapse into one entry — the
     paper's DestList grouping. *)
  let pl = pl_of [ (5, 2); (6, 2); (7, 3) ] in
  Alcotest.(check int) "two entries" 2 (Permission_list.num_entries pl);
  Alcotest.(check (list int)) "all dests" [ 5; 6; 7 ] (dests pl);
  match Permission_list.entries pl with
  | [ (2, [ 5; 6 ]); (3, [ 7 ]) ] -> ()
  | _ -> Alcotest.fail "unexpected entry structure"

let test_idempotent_add () =
  let pl = pl_of [ (5, 2); (5, 2) ] in
  Alcotest.(check int) "one entry" 1 (Permission_list.num_entries pl);
  Alcotest.(check (list int)) "one dest" [ 5 ] (dests pl)

let test_remove_dest () =
  let pl = pl_of [ (5, 2); (6, 2); (7, 3) ] in
  let pl = remove_dest pl ~dest:7 in
  Alcotest.(check int) "entry vanished with its last dest" 1
    (Permission_list.num_entries pl);
  let pl = remove_dest pl ~dest:5 in
  Alcotest.(check bool) "6 survives" true
    (Permission_list.permit pl ~dest:6 ~next:2);
  Alcotest.(check bool) "5 gone" false
    (Permission_list.permit pl ~dest:5 ~next:2)

let test_next_for () =
  let pl = pl_of [ (5, 2); (7, -1) ] in
  Alcotest.(check bool) "next of 5" true
    (next_for pl ~dest:5 = Some 2);
  Alcotest.(check bool) "next of 7" true
    (next_for pl ~dest:7 = Some (-1));
  Alcotest.(check bool) "absent" true
    (next_for pl ~dest:9 = None)

let test_equal () =
  let a = pl_of [ (5, 2); (6, 3) ] in
  let b = pl_of [ (6, 3); (5, 2) ] in
  Alcotest.(check bool) "order independent" true (Permission_list.equal a b);
  let c = pl_of [ (5, 2) ] in
  Alcotest.(check bool) "different" false (Permission_list.equal a c)

(* Lists built in bulk: pairs pushed into a scratch in any order, with
   duplicates, freeze to the same list as [add] folded over them — and
   the scratch's own reads (equality, entry count, priced size) agree
   with the frozen list's. *)
let scratch_equals_add_fold =
  QCheck.Test.make ~name:"scratch build = add fold (shuffled, duplicates)"
    ~count:200
    QCheck.(
      pair (list_of_size Gen.(0 -- 60) (pair (int_bound 40) (int_bound 5)))
        (int_bound 1000))
    (fun (specs, seed) ->
      let pairs =
        List.map
          (fun (dest, nxt) -> (dest, if nxt = 0 then -1 else 100 + nxt))
          specs
      in
      (* Shuffle a duplicated copy of the pairs. *)
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map (fun p -> (Random.State.bits rng, p)) (pairs @ pairs)
        |> List.sort compare |> List.map snd
      in
      (* A reused scratch: [clear] drops what an earlier list left. *)
      let s = Permission_list.Scratch.create () in
      Permission_list.Scratch.push s ~dest:0 ~next:(-1);
      Permission_list.Scratch.clear s;
      List.iter
        (fun (dest, next) -> Permission_list.Scratch.push s ~dest ~next)
        shuffled;
      let folded = pl_of pairs in
      let fp_rate = 0.01 in
      Permission_list.Scratch.equal s folded
      && Permission_list.Scratch.num_entries s
         = Permission_list.num_entries folded
      && Permission_list.Scratch.compressed_size_bytes s ~fp_rate
         = Permission_list.compressed_size_bytes folded ~fp_rate
      && Permission_list.equal (Permission_list.Scratch.freeze s) folded
      && Permission_list.entries (Permission_list.Scratch.freeze s)
         = Permission_list.entries folded)

(* The packing covers every id a P-graph accepts. *)
let test_extreme_ids () =
  let top = Pgraph.max_node in
  let pl = pl_of [ (top, top); (top, -1); (0, 0) ] in
  Alcotest.(check bool) "top pair" true
    (Permission_list.permit pl ~dest:top ~next:top);
  Alcotest.(check bool) "top dest, terminal" true
    (Permission_list.permit pl ~dest:top ~next:(-1));
  Alcotest.(check bool) "zero pair" true
    (Permission_list.permit pl ~dest:0 ~next:0);
  Alcotest.(check bool) "out of range never permitted" false
    (Permission_list.permit pl ~dest:(top + 1) ~next:(-1));
  match Permission_list.entries pl with
  | [ (-1, [ d1 ]); (0, [ 0 ]); (n, [ d2 ]) ]
    when d1 = top && n = top && d2 = top -> ()
  | _ -> Alcotest.fail "unexpected entry order at the id limits"

let test_compressed_size () =
  let pl = pl_of (List.init 50 (fun i -> (i, 99))) in
  let bytes = Permission_list.compressed_size_bytes pl ~fp_rate:0.01 in
  (* 50 dests at 1% fp ~ 60 bytes of Bloom bits + 4 bytes next hop;
     far below the ~200 bytes of a naive int list. *)
  Alcotest.(check bool) "within expected band" true (bytes > 20 && bytes < 100)

(* The real wire encoding, built over the public API: one Bloom filter
   per ⟨DestList, NextHop⟩ entry, holding the entry's destinations. *)
let compress pl ~fp_rate =
  List.map
    (fun (next, dests) ->
      let filter = Bloom.create ~expected:(List.length dests) ~fp_rate in
      List.iter (Bloom.add filter) dests;
      (next, filter))
    (Permission_list.entries pl)

(* Serialized size: per entry, 4 bytes of next hop plus the filter. *)
let compressed_bytes c =
  List.fold_left (fun acc (_, filter) -> acc + 4 + Bloom.size_bytes filter) 0 c

let compressed_permit c ~dest ~next =
  List.exists (fun (n, filter) -> n = next && Bloom.mem filter dest) c

(* Membership in the real encoding may gain false positives but never
   loses a permitted pair, and the serialized size must agree exactly
   with the closed-form price the static analysis reports. *)
let compressed_roundtrip =
  QCheck.Test.make ~name:"compressed wire encoding: no false negatives"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 200) (int_bound 6)))
    (fun specs ->
      let pl =
        pl_of
          (List.map
             (fun (dest, nxt) ->
               (dest, if nxt = 0 then -1 else 300 + nxt))
             specs)
      in
      let fp_rate = 0.01 in
      let c = compress pl ~fp_rate in
      compressed_bytes c = Permission_list.compressed_size_bytes pl ~fp_rate
      && List.for_all
           (fun (dest, nxt) ->
             let next = if nxt = 0 then -1 else 300 + nxt in
             compressed_permit c ~dest ~next)
           specs)

let test_compressed_rejects_unknown_next () =
  (* False positives only confuse destinations within an entry's filter;
     a next hop no entry carries can never be permitted. *)
  let pl = pl_of (List.init 50 (fun i -> (i, 99))) in
  let c = compress pl ~fp_rate:0.01 in
  Alcotest.(check bool) "unknown next hop rejected" false
    (compressed_permit c ~dest:5 ~next:7)

(* The per-path encoding: one entry per policy-compliant path through
   the link, "theoretically useful in demonstrating the expressiveness
   of Permission Lists" (§4.1). *)
module Exhaustive = struct
  module Pset = Set.Make (struct
    type t = Path.t

    let compare = Path.compare
  end)

  let empty = Pset.empty

  let add_path t p = Pset.add p t

  let permit_path t p = Pset.mem p t

  let paths t = Pset.elements t

  (* Compile to a per-dest-next [permit] predicate for multi-homed node
     [B]: each path through [B] maps to ⟨its destination, [B]'s next
     hop on it⟩. *)
  let to_per_dest_next t ~multi_homed =
    let compiled =
      Pset.fold
        (fun p pl ->
          if Path.contains p multi_homed then
            Permission_list.add pl ~dest:(Path.destination p)
              ~next:(Helpers.next_after p multi_homed)
          else pl)
        t Permission_list.empty
    in
    fun ~dest ~next -> Permission_list.permit compiled ~dest ~next
end

(* Claim 1: per-dest-next encoding has the same descriptiveness as
   exhaustive per-path encoding, over the paths through one link. *)
let exhaustive_equivalence =
  QCheck.Test.make ~name:"per-dest-next == exhaustive per-path (Claim 1)"
    ~count:200
    (* Random single-path-per-destination sets through multi-homed node
       B = 100: prefixes root..x..B, suffixes B..dest. *)
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (pair (int_bound 5) (pair (int_bound 5) (int_bound 30))))
    (fun specs ->
      let root = 200 and b = 100 in
      (* Build one path per distinct destination; destination ids are
         disjoint from prefix ids by construction. *)
      let seen = Hashtbl.create 8 in
      let paths =
        List.filter_map
          (fun (via, (nxt, dest_raw)) ->
            let dest = 300 + dest_raw in
            if Hashtbl.mem seen dest then None
            else begin
              Hashtbl.replace seen dest ();
              (* root -> via -> B -> (maybe nxt ->) dest *)
              let prefix = [ root; 250 + via; b ] in
              let suffix = if nxt = 0 then [ dest ] else [ 270 + nxt; dest ] in
              Some (prefix @ suffix)
            end)
          specs
      in
      let exhaustive =
        List.fold_left Exhaustive.add_path Exhaustive.empty paths
      in
      let permit_compiled =
        Exhaustive.to_per_dest_next exhaustive ~multi_homed:b
      in
      (* Every path's (dest, next-of-B) must be permitted, and a fresh
         (dest, next) pair not in the set must not. *)
      List.for_all
        (fun p ->
          let dest = Path.destination p in
          let next = Helpers.next_after p b in
          permit_compiled ~dest ~next)
        paths
      && not (permit_compiled ~dest:999 ~next:888))

let test_exhaustive_paths () =
  let e =
    List.fold_left Exhaustive.add_path Exhaustive.empty
      [ [ 1; 2; 3 ]; [ 1; 4 ] ]
  in
  Alcotest.(check int) "stored" 2 (List.length (Exhaustive.paths e));
  Alcotest.(check bool) "member" true
    (Exhaustive.permit_path e [ 1; 2; 3 ]);
  Alcotest.(check bool) "non-member" false (Exhaustive.permit_path e [ 1; 2 ])

let suite =
  [ Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/permit" `Quick test_add_permit;
    Alcotest.test_case "dest grouping" `Quick test_grouping;
    Alcotest.test_case "idempotent add" `Quick test_idempotent_add;
    Alcotest.test_case "remove dest" `Quick test_remove_dest;
    Alcotest.test_case "next_for" `Quick test_next_for;
    Alcotest.test_case "equal" `Quick test_equal;
    QCheck_alcotest.to_alcotest scratch_equals_add_fold;
    Alcotest.test_case "extreme ids" `Quick test_extreme_ids;
    Alcotest.test_case "compressed size" `Quick test_compressed_size;
    QCheck_alcotest.to_alcotest compressed_roundtrip;
    Alcotest.test_case "compressed rejects unknown next" `Quick
      test_compressed_rejects_unknown_next;
    QCheck_alcotest.to_alcotest exhaustive_equivalence;
    Alcotest.test_case "exhaustive paths" `Quick test_exhaustive_paths ]
