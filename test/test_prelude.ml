(* Foundation utilities: RNG determinism and distribution sanity, heap
   ordering, statistics, union-find — including qcheck properties. *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_rejects_bad_bound () =
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (Rng.create 1) 0))

let test_rng_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets within 20% of expected. *)
  let rng = Rng.create 77 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_sample_distinct () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  let s = Rng.sample rng 20 arr in
  Alcotest.(check int) "sample size" 20 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then Alcotest.fail "duplicate in sample"
  done

let test_rng_sample_clamps () =
  let rng = Rng.create 11 in
  let s = Rng.sample rng 99 [| 1; 2; 3 |] in
  Alcotest.(check int) "clamped to population" 3 (Array.length s)

(* Pop every entry as (key, tie, payload), smallest first. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let e = (Heap.min_key h, Heap.min_tie h, Heap.min_value h) in
      Heap.pop h;
      go (e :: acc)
    end
  in
  go []

let test_heap_pop_order () =
  let h = Heap.create ~dummy:"" in
  List.iteri
    (fun i (k, v) -> Heap.push h ~key:k ~tie:i v)
    [ (5.0, "e"); (1.0, "a"); (4.0, "d"); (1.0, "b"); (3.0, "c") ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (float 0.0)) "min key" 1.0 (Heap.min_key h);
  Alcotest.(check int) "min tie" 1 (Heap.min_tie h);
  Alcotest.(check string) "peek keeps the entry" "a" (Heap.min_value h);
  Alcotest.(check int) "length after peek" 5 (Heap.length h);
  Alcotest.(check (list string))
    "sorted drain" [ "a"; "b"; "c"; "d"; "e" ]
    (List.map (fun (_, _, v) -> v) (drain h))

let test_heap_tie_order () =
  (* Equal keys pop by tie, whatever the push order: there is no hidden
     insertion counter. *)
  let h = Heap.create ~dummy:"" in
  Heap.push h ~key:1.0 ~tie:5 "late tie";
  Heap.push h ~key:0.0 ~tie:9 "zero";
  Heap.push h ~key:1.0 ~tie:2 "early tie";
  Alcotest.(check (list (triple (float 0.0) int string)))
    "(key, tie) order"
    [ (0.0, 9, "zero"); (1.0, 2, "early tie"); (1.0, 5, "late tie") ]
    (drain h)

let test_heap_empty () =
  let h = Heap.create ~dummy:0 in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.check_raises "min_key" (Invalid_argument "Heap.min_key: empty heap")
    (fun () -> ignore (Heap.min_key h));
  Alcotest.check_raises "min_tie" (Invalid_argument "Heap.min_tie: empty heap")
    (fun () -> ignore (Heap.min_tie h));
  Alcotest.check_raises "min_value"
    (Invalid_argument "Heap.min_value: empty heap") (fun () ->
      ignore (Heap.min_value h));
  Alcotest.check_raises "pop" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> Heap.pop h)

let test_heap_clear () =
  let h = Heap.create ~dummy:0 in
  Heap.push h ~key:3.0 ~tie:0 3;
  Heap.push h ~key:1.0 ~tie:1 1;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h ~key:9.0 ~tie:0 9;
  Alcotest.(check int) "usable after clear" 9 (Heap.min_value h);
  Alcotest.(check int) "one entry" 1 (Heap.length h)

(* A payload the heap no longer holds must be collectable while the heap
   lives on: popped and cleared entries leave [dummy] behind. *)
let test_heap_releases_payloads () =
  let h = Heap.create ~dummy:(ref (-1)) in
  let weak = Weak.create 40 in
  for i = 0 to 39 do
    let v = ref i in
    Weak.set weak i (Some v);
    Heap.push h ~key:(float_of_int (i mod 7)) ~tie:i v
  done;
  let popped = Array.make 40 false in
  for _ = 1 to 30 do
    popped.(!(Heap.min_value h)) <- true;
    Heap.pop h
  done;
  Gc.full_major ();
  for i = 0 to 39 do
    if Weak.check weak i = popped.(i) then
      Alcotest.failf "payload %d: %s" i
        (if popped.(i) then "popped but still reachable"
         else "queued but collected")
  done;
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 39 do
    if Weak.check weak i then
      Alcotest.failf "payload %d reachable after clear" i
  done;
  Alcotest.(check int) "heap still usable" 0 (Heap.length h)

let heap_qcheck =
  QCheck.Test.make ~name:"heap drains any int list sorted" ~count:200
    QCheck.(list small_signed_int)
    (fun l ->
      let h = Heap.create ~dummy:0 in
      List.iteri (fun i x -> Heap.push h ~key:(float_of_int x) ~tie:i x) l;
      List.map (fun (_, _, v) -> v) (drain h) = List.sort compare l)

(* The heap against a sorted-list model. Keys come from five values, so
   equal keys are common; ties are unique but not in push order. Pushes,
   pops and clears interleave, and the runs between clears often pass
   the initial capacity of 16. *)
type heap_op = Push of float * int | Pop | Clear

let heap_model_qcheck =
  let keys = [| 0.0; 0.5; 1.0; 2.5; 7.0 |] in
  let op =
    QCheck.Gen.(
      frequency
        [ (40, map2 (fun k r -> Push (keys.(k), r)) (int_bound 4) (int_bound 1000));
          (19, return Pop);
          (1, return Clear) ])
  in
  let show = function
    | Push (k, r) -> Printf.sprintf "push %g/%d" k r
    | Pop -> "pop"
    | Clear -> "clear"
  in
  QCheck.Test.make ~name:"heap matches a sorted-list model"
    ~count:(Helpers.qcheck_count 300)
    QCheck.(
      make ~print:Print.(list show) Gen.(list_size (int_bound 400) op))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      let model = ref [] in
      List.iteri
        (fun i op ->
          (match op with
          | Push (key, r) ->
            (* Unique: the op index sits below a random high part. *)
            let tie = (r lsl 10) lor i in
            Heap.push h ~key ~tie i;
            model := List.merge compare !model [ (key, tie, i) ]
          | Pop -> (
            match !model with
            | [] -> ()
            | top :: rest ->
              if (Heap.min_key h, Heap.min_tie h, Heap.min_value h) <> top then
                QCheck.Test.fail_reportf "op %d: wrong minimum" i;
              Heap.pop h;
              model := rest)
          | Clear ->
            Heap.clear h;
            model := []);
          if Heap.length h <> List.length !model then
            QCheck.Test.fail_reportf "op %d: length %d, model %d" i
              (Heap.length h) (List.length !model))
        ops;
      drain h = !model)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  let lo, hi = Stats.min_max xs in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 4.0 hi

let test_stats_fraction_below () =
  Alcotest.(check (float 1e-9))
    "two of four" 0.5
    (Stats.fraction_below [| 1.0; 5.0; 2.0; 9.0 |] [| 2.0; 4.0; 3.0; 8.0 |])

let stats_percentile_qcheck =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
              (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let xs = Array.of_list l in
      let v = Stats.percentile xs p in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let test_rng_misc () =
  let rng = Rng.create 21 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "int_in out of range: %d" v;
    let f = Rng.float_in rng 2.0 5.0 in
    if f < 2.0 || f >= 5.0 then Alcotest.failf "float_in out of range: %f" f
  done;
  Alcotest.check_raises "int_in bad range"
    (Invalid_argument "Rng.int_in: hi < lo") (fun () ->
      ignore (Rng.int_in rng 5 4));
  (* Exponential has the right mean, roughly. *)
  let total = ref 0.0 in
  for _ = 1 to 20_000 do
    total := !total +. Rng.exponential rng 3.0
  done;
  let mean = !total /. 20_000.0 in
  if mean < 2.7 || mean > 3.3 then Alcotest.failf "exponential mean %f" mean;
  (* Shuffle preserves multiset. *)
  Alcotest.(check (list int)) "shuffle_list permutes" (List.init 9 Fun.id)
    (List.sort compare (Rng.shuffle_list rng (List.init 9 Fun.id)))

let test_pool_map_ordering () =
  (* Results land by index regardless of which domain computed them. *)
  Pool.with_size 4 (fun () ->
      let a = Array.init 500 (fun i -> i) in
      let r = Pool.parallel_map_array (fun x -> (2 * x) + 1) a in
      Alcotest.(check bool) "index-ordered results" true
        (r = Array.init 500 (fun i -> (2 * i) + 1)))

let test_pool_exception_propagation () =
  Pool.with_size 4 (fun () ->
      let a = Array.init 100 (fun i -> i) in
      Alcotest.check_raises "worker exception reaches caller"
        (Failure "boom") (fun () ->
          ignore
            (Pool.parallel_map_array
               (fun x -> if x = 37 then failwith "boom" else x)
               a));
      (* The failed job must not poison the pool. *)
      let r = Pool.parallel_map_array (fun x -> x + 1) a in
      Alcotest.(check bool) "pool usable after exception" true
        (r = Array.init 100 (fun i -> i + 1)))

let test_pool_first_failure_wins () =
  (* With several failing indices the lowest index's exception is the
     one re-raised — deterministic across schedules. *)
  Pool.with_size 4 (fun () ->
      let a = Array.init 64 (fun i -> i) in
      Alcotest.check_raises "lowest failing index" (Failure "idx-5")
        (fun () ->
          ignore
            (Pool.parallel_map_array
               (fun x ->
                 if x >= 5 && x mod 5 = 0 then
                   failwith (Printf.sprintf "idx-%d" x)
                 else x)
               a)))

let test_pool_reuse_across_calls () =
  Pool.with_size 3 (fun () ->
      for round = 1 to 5 do
        let a = Array.init (50 * round) (fun i -> i) in
        let r = Pool.parallel_map_array (fun x -> x * round) a in
        Alcotest.(check bool)
          (Printf.sprintf "round %d" round)
          true
          (r = Array.init (50 * round) (fun i -> i * round))
      done)

let test_pool_size_one_sequential () =
  Pool.with_size 1 (fun () ->
      Alcotest.(check int) "forced size" 1 (Pool.size ());
      let r = Pool.parallel_map_array string_of_int [| 3; 1; 4 |] in
      Alcotest.(check (array string)) "sequential map" [| "3"; "1"; "4" |] r);
  Alcotest.check_raises "size must be positive"
    (Invalid_argument "Pool.with_size: size must be >= 1") (fun () ->
      Pool.with_size 0 (fun () -> ()))

let test_pool_nested_calls () =
  (* A work item calling back into the pool runs sequentially instead of
     deadlocking. *)
  Pool.with_size 4 (fun () ->
      let r =
        Pool.parallel_map_array
          (fun x ->
            Array.fold_left ( + ) 0
              (Pool.parallel_map_array (fun y -> y) (Array.init 10 (fun i -> i + x))))
          (Array.init 20 (fun i -> i))
      in
      let expected = Array.init 20 (fun x -> 45 + (10 * x)) in
      Alcotest.(check bool) "nested map correct" true (r = expected))

let test_pool_parallel_fold_ranges () =
  (* The claimed ranges tile [0, total) exactly: the merged bag holds
     each index once, whatever the pool size or chunking, and no
     participant builds a second workspace. A claim takes
     total / (8 * size) indices, clamped to [1, 128]: after the
     sequential case, the cases below claim 9, 1, 41 and 128 at a
     time. *)
  let run ~size ~total =
    Pool.with_size size (fun () ->
        let created = Atomic.make 0 in
        let bag =
          Pool.parallel_fold_ranges
            ~create:(fun () ->
              Atomic.incr created;
              ref [])
            ~merge:(fun acc ws -> List.rev_append !ws acc)
            ~init:[] total
            (fun ws ~lo ~hi ->
              for i = lo to hi - 1 do
                ws := (i, i * i) :: !ws
              done)
        in
        (List.sort compare bag, Atomic.get created))
  in
  List.iter
    (fun (size, total) ->
      let got, created = run ~size ~total in
      Alcotest.(check bool)
        (Printf.sprintf "ranges size=%d total=%d" size total)
        true
        (got = List.init total (fun i -> (i, i * i)));
      Alcotest.(check bool) "at most one workspace per participant" true
        (created >= 1 && created <= size))
    [ (1, 300); (4, 300); (4, 7); (3, 1000); (4, 5000) ];
  (* Sequential path: exactly one body call covering the full range, so
     per-batch setup hoisted by callers runs once. *)
  Pool.with_size 1 (fun () ->
      let calls = ref [] in
      ignore
        (Pool.parallel_fold_ranges
           ~create:(fun () -> ())
           ~merge:(fun acc () -> acc)
           ~init:() 57
           (fun () ~lo ~hi -> calls := (lo, hi) :: !calls));
      Alcotest.(check (list (pair int int)))
        "one full range" [ (0, 57) ] !calls);
  (* Empty range: no workspace, init returned. *)
  Pool.with_size 4 (fun () ->
      let r =
        Pool.parallel_fold_ranges
          ~create:(fun () -> Alcotest.fail "workspace for empty ranges fold")
          ~merge:(fun acc () -> acc)
          ~init:"init" 0
          (fun () ~lo:_ ~hi:_ -> ())
      in
      Alcotest.(check string) "empty ranges fold" "init" r)

let test_pool_parallel_fold_ranges_exceptions () =
  Pool.with_size 4 (fun () ->
      (* A body raising mid-range is recorded at the range's first
         index, and the lowest failing range wins: 320 indices over 4
         domains are claimed 10 at a time, so the failures at 25 and 45
         land in ranges starting at 20 and 40. *)
      Alcotest.check_raises "lowest failing range wins" (Failure "range-20")
        (fun () ->
          ignore
            (Pool.parallel_fold_ranges
               ~create:(fun () -> ())
               ~merge:(fun acc () -> acc)
               ~init:() 320
               (fun () ~lo ~hi ->
                 for i = lo to hi - 1 do
                   if i = 25 || i = 45 then
                     failwith (Printf.sprintf "range-%d" lo)
                 done)));
      (* Still usable afterwards. *)
      let total =
        Pool.parallel_fold_ranges
          ~create:(fun () -> ref 0)
          ~merge:(fun acc ws -> acc + !ws)
          ~init:0 100
          (fun ws ~lo ~hi ->
            for i = lo to hi - 1 do
              ws := !ws + i
            done)
      in
      Alcotest.(check int) "sum after failure" 4950 total)

let test_union_find () =
  let uf = Union_find.create 5 in
  let same a b = Union_find.find uf a = Union_find.find uf b in
  Alcotest.(check bool) "singletons" false (same 0 1);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union 1 0 again" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "same 0 1" true (same 0 1);
  Alcotest.(check bool) "not same 0 2" false (same 0 2);
  Alcotest.(check bool) "4 alone" false (same 3 4);
  ignore (Union_find.union uf 0 2);
  Alcotest.(check bool) "transitive" true (same 1 3)

let test_dirty_mark_take () =
  let d = Dirty.create () in
  Alcotest.(check bool) "starts empty" true (Dirty.is_empty d);
  Dirty.mark d 7;
  Dirty.mark d 3;
  Dirty.mark d 7;
  Dirty.mark_list d [ 11; 3 ];
  Alcotest.(check int) "deduplicated" 3 (Dirty.cardinal d);
  Alcotest.(check bool) "mem" true (Dirty.mem d 3);
  Alcotest.(check (list int)) "take sorts ascending" [ 3; 7; 11 ]
    (Dirty.take d);
  Alcotest.(check bool) "take drains" true (Dirty.is_empty d);
  Dirty.mark d 1;
  Dirty.clear d;
  Alcotest.(check (list int)) "clear empties" [] (Dirty.take d)

let test_dirty_drain_cascades () =
  (* A key marked during the drain is processed in a later round of the
     same call — the recompute-cascading-into-recompute case. *)
  let d = Dirty.create () in
  Dirty.mark_list d [ 2; 5 ];
  let seen = ref [] in
  Dirty.drain d (fun k ->
      seen := k :: !seen;
      if k = 2 then Dirty.mark d 9);
  Alcotest.(check (list int)) "cascade handled in order" [ 2; 5; 9 ]
    (List.rev !seen);
  Alcotest.(check bool) "drained" true (Dirty.is_empty d)

let test_dirty_range_fold () =
  let d = Dirty.create () in
  Dirty.mark_range d 4 7;
  Alcotest.(check int) "range cardinality" 4 (Dirty.cardinal d);
  let sum = Dirty.fold d ~init:0 ~f:( + ) in
  Alcotest.(check int) "fold ascending sum" 22 sum;
  Alcotest.(check bool) "fold preserves" false (Dirty.is_empty d)

(* Dirty against a sorted, duplicate-free key list: random marks (single,
   list and range, with keys past the membership bytes it starts with),
   takes, clears and drains, checking membership, cardinality and the
   ascending fold after every op. *)
type dirty_op =
  | Mark of int
  | Mark_range of int * int
  | Take
  | Clear
  | Drain

let dirty_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun k -> Mark k) (int_bound 300));
        (1, map2 (fun lo len -> Mark_range (lo, lo + len)) (int_bound 300) (int_bound 6));
        (1, return Take);
        (1, return Clear);
        (1, return Drain) ])

let show_dirty_op = function
  | Mark k -> Printf.sprintf "mark %d" k
  | Mark_range (lo, hi) -> Printf.sprintf "range %d..%d" lo hi
  | Take -> "take"
  | Clear -> "clear"
  | Drain -> "drain"

let dirty_matches_model =
  QCheck.Test.make ~name:"dirty = sorted-list model" ~count:(Helpers.qcheck_count 300)
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_dirty_op ops))
       QCheck.Gen.(list_size (int_bound 60) dirty_op_gen))
    (fun ops ->
      let d = Dirty.create ~size:8 () in
      let model = ref [] in
      let add keys = model := List.sort_uniq Int.compare (keys @ !model) in
      let step op =
        (match op with
        | Mark k -> Dirty.mark d k; add [ k ]
        | Mark_range (lo, hi) ->
          Dirty.mark_range d lo hi;
          add (List.init (hi - lo + 1) (fun i -> lo + i))
        | Take ->
          if Dirty.take d <> !model then Alcotest.fail "take";
          model := []
        | Clear -> Dirty.clear d; model := []
        | Drain ->
          let seen = ref [] in
          Dirty.drain d (fun k -> seen := k :: !seen);
          if List.rev !seen <> !model then Alcotest.fail "drain";
          model := []);
        Dirty.cardinal d = List.length !model
        && Dirty.is_empty d = (!model = [])
        && Dirty.fold d ~init:[] ~f:(fun acc k -> k :: acc) = List.rev !model
        && List.for_all (fun k -> Dirty.mem d k = List.mem k !model) [ 0; 7; 8; 150; 299; 306; 1000 ]
      in
      List.for_all step ops && Dirty.take d = !model)

let test_dirty_negative_key () =
  let d = Dirty.create () in
  Alcotest.check_raises "negative key" (Invalid_argument "Dirty.mark: negative key")
    (fun () -> Dirty.mark d (-1));
  Alcotest.(check bool) "negative never a member" false (Dirty.mem d (-1));
  Alcotest.(check bool) "still empty" true (Dirty.is_empty d)

(* Bit rows against one sorted id list per row: random adds and removes
   over rows touched in any order, with the ids at both ends of the
   range drawn often. After each op the touched row must answer
   membership and read back ascending, from its start and from the op's
   id; at the end every row must, and ids outside the range raise. *)
type bit_op = Set of int * int | Unset of int * int

let bit_rows_model_qcheck =
  let rows_gen =
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      let id = frequency [ (1, return 0); (1, return (n - 1)); (4, int_bound (n - 1)) ] in
      let op =
        map3 (fun set r i -> if set then Set (r, i) else Unset (r, i))
          (frequencyl [ (3, true); (2, false) ]) id id
      in
      map (fun ops -> (n, ops)) (list_size (int_bound 300) op))
  in
  let show = function
    | Set (r, i) -> Printf.sprintf "set %d.%d" r i
    | Unset (r, i) -> Printf.sprintf "unset %d.%d" r i
  in
  QCheck.Test.make ~name:"bit rows match a sorted-list model"
    ~count:(Helpers.qcheck_count 300)
    QCheck.(make ~print:Print.(pair int (list show)) rows_gen)
    (fun (n, ops) ->
      let t = Bit_rows.create n in
      let model = Array.make n [] in
      let read r from =
        let acc = ref [] in
        let i = ref (Bit_rows.next t r from) in
        while !i >= 0 do
          acc := !i :: !acc;
          i := Bit_rows.next t r (!i + 1)
        done;
        List.rev !acc
      in
      List.iteri
        (fun k op ->
          let r, i, member =
            match op with
            | Set (r, i) ->
              Bit_rows.add t r i;
              model.(r) <- List.sort_uniq Int.compare (i :: model.(r));
              (r, i, true)
            | Unset (r, i) ->
              Bit_rows.remove t r i;
              model.(r) <- List.filter (( <> ) i) model.(r);
              (r, i, false)
          in
          if Bit_rows.mem t r i <> member then
            QCheck.Test.fail_reportf "op %d: membership of %d in row %d" k i r;
          if read r 0 <> model.(r) then
            QCheck.Test.fail_reportf "op %d: row %d reads back wrong" k r;
          if read r i <> List.filter (fun x -> x >= i) model.(r) then
            QCheck.Test.fail_reportf "op %d: row %d from %d reads back wrong" k r i)
        ops;
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      Array.for_all Fun.id
        (Array.mapi
           (fun r m ->
             read r 0 = m
             && List.for_all (fun i -> Bit_rows.mem t r i = List.mem i m) (List.init n Fun.id)
             && Bit_rows.next t r n = -1)
           model)
      && raises (fun () -> Bit_rows.add t n 0)
      && raises (fun () -> Bit_rows.add t 0 n)
      && raises (fun () -> Bit_rows.remove t (-1) 0)
      && raises (fun () -> Bit_rows.mem t 0 (-1))
      && raises (fun () -> Bit_rows.next t 0 (-1))
      && raises (fun () -> Bit_rows.next t n 0))

(* Flat_tbl against a Hashtbl model. Keys come from [-8, 40), so a
   table created at 8 slots grows several times; removes are frequent,
   so the tombstones they leave are reused by later sets and compacted
   away when tombstones fill the table. After every op, every key of
   the range and two outside it answer [find_opt], [find_default] and
   [mem] as the model does, and [length], [iter] and [fold] see the
   model's bindings. *)
type tbl_op =
  | Tbl_set of int * int
  | Tbl_add of int * int
  | Tbl_remove of int
  | Tbl_clear

let flat_tbl_model_qcheck =
  let key = QCheck.Gen.int_range (-8) 39 in
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map2 (fun k v -> Tbl_set (k, v)) key (int_range (-50) 50));
          (3, map2 (fun k d -> Tbl_add (k, d)) key (int_range (-5) 5));
          (5, map (fun k -> Tbl_remove k) key);
          (1, return Tbl_clear) ])
  in
  let show = function
    | Tbl_set (k, v) -> Printf.sprintf "set %d=%d" k v
    | Tbl_add (k, d) -> Printf.sprintf "add %d+%d" k d
    | Tbl_remove k -> Printf.sprintf "remove %d" k
    | Tbl_clear -> "clear"
  in
  let probes = 1000 :: min_int + 2 :: List.init 48 (fun i -> i - 8) in
  QCheck.Test.make ~name:"flat table matches a Hashtbl model"
    ~count:(Helpers.qcheck_count 300)
    QCheck.(make ~print:Print.(list show) Gen.(list_size (int_bound 300) op))
    (fun ops ->
      let t = Flat_tbl.create ~initial:8 () in
      let model = Hashtbl.create 16 in
      let bindings () =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      List.iteri
        (fun i op ->
          (match op with
          | Tbl_set (k, v) ->
            Flat_tbl.set t k v;
            Hashtbl.replace model k v
          | Tbl_add (k, d) ->
            let v = d + Option.value (Hashtbl.find_opt model k) ~default:0 in
            Hashtbl.replace model k v;
            if Flat_tbl.add_to t k d <> v then
              QCheck.Test.fail_reportf "op %d: add_to %d, model %d" i k v
          | Tbl_remove k ->
            Flat_tbl.remove t k;
            Hashtbl.remove model k
          | Tbl_clear ->
            Flat_tbl.clear t;
            Hashtbl.reset model);
          List.iter
            (fun k ->
              let m = Hashtbl.find_opt model k in
              if Flat_tbl.find_opt t k <> m then
                QCheck.Test.fail_reportf "op %d: find_opt %d" i k;
              let d = Flat_tbl.find_default t k ~default:min_int in
              if d <> Option.value m ~default:min_int then
                QCheck.Test.fail_reportf "op %d: find_default %d" i k;
              if Flat_tbl.mem t k <> (m <> None) then
                QCheck.Test.fail_reportf "op %d: mem %d" i k)
            probes;
          let expected = bindings () in
          if Flat_tbl.length t <> List.length expected then
            QCheck.Test.fail_reportf "op %d: length %d, model %d" i
              (Flat_tbl.length t) (List.length expected);
          let seen = ref [] in
          Flat_tbl.iter t (fun k v -> seen := (k, v) :: !seen);
          if List.sort compare !seen <> expected then
            QCheck.Test.fail_reportf "op %d: iter bindings differ" i;
          let folded = Flat_tbl.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
          if List.sort compare folded <> expected then
            QCheck.Test.fail_reportf "op %d: fold bindings differ" i)
        ops;
      true)

let suite =
  [ Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng rejects bad bound" `Quick
      test_rng_int_rejects_bad_bound;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng sample distinct" `Quick test_rng_sample_distinct;
    Alcotest.test_case "rng sample clamps" `Quick test_rng_sample_clamps;
    Alcotest.test_case "heap pop order" `Quick test_heap_pop_order;
    Alcotest.test_case "heap tie order" `Quick test_heap_tie_order;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    Alcotest.test_case "heap releases payloads" `Quick
      test_heap_releases_payloads;
    QCheck_alcotest.to_alcotest heap_qcheck;
    QCheck_alcotest.to_alcotest heap_model_qcheck;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats fraction below" `Quick
      test_stats_fraction_below;
    QCheck_alcotest.to_alcotest stats_percentile_qcheck;
    Alcotest.test_case "rng misc" `Quick test_rng_misc;
    Alcotest.test_case "pool map ordering" `Quick test_pool_map_ordering;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagation;
    Alcotest.test_case "pool first failure wins" `Quick
      test_pool_first_failure_wins;
    Alcotest.test_case "pool reuse across calls" `Quick
      test_pool_reuse_across_calls;
    Alcotest.test_case "pool size one sequential" `Quick
      test_pool_size_one_sequential;
    Alcotest.test_case "pool nested calls" `Quick test_pool_nested_calls;
    Alcotest.test_case "pool parallel fold ranges" `Quick
      test_pool_parallel_fold_ranges;
    Alcotest.test_case "pool parallel fold ranges exceptions" `Quick
      test_pool_parallel_fold_ranges_exceptions;
    Alcotest.test_case "union find" `Quick test_union_find;
    Alcotest.test_case "dirty mark and take" `Quick test_dirty_mark_take;
    Alcotest.test_case "dirty drain cascades" `Quick
      test_dirty_drain_cascades;
    Alcotest.test_case "dirty range and fold" `Quick
      test_dirty_range_fold;
    QCheck_alcotest.to_alcotest dirty_matches_model;
    Alcotest.test_case "dirty rejects negative keys" `Quick
      test_dirty_negative_key;
    QCheck_alcotest.to_alcotest bit_rows_model_qcheck;
    QCheck_alcotest.to_alcotest flat_tbl_model_qcheck ]
