(* Bloom filter: no false negatives, bounded false positives, sizing
   formulae, estimators. *)

let test_no_false_negatives () =
  let b = Bloom.create ~expected:100 ~fp_rate:0.01 in
  for i = 0 to 99 do
    Bloom.add b (i * 7)
  done;
  for i = 0 to 99 do
    Alcotest.(check bool) "member found" true (Bloom.mem b (i * 7))
  done

let bloom_no_false_negatives_qcheck =
  QCheck.Test.make ~name:"bloom never forgets" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) int)
    (fun keys ->
      let b = Bloom.create ~expected:(max 1 (List.length keys)) ~fp_rate:0.02 in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let test_false_positive_rate () =
  let b = Bloom.create ~expected:1000 ~fp_rate:0.01 in
  for i = 0 to 999 do
    Bloom.add b i
  done;
  let fps = ref 0 in
  let probes = 10_000 in
  for i = 1 to probes do
    if Bloom.mem b (100_000 + i) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  (* Target 1%; accept anything under 3%. *)
  if rate > 0.03 then Alcotest.failf "fp rate too high: %.3f" rate

(* At wire scale (10^5 entries, the ballpark of a 26k-node P-graph's
   densest Permission Lists aggregated) the observed false-positive rate
   must stay within 2x the configured rate, for every rate the engine
   accounting can be configured with. *)
let test_false_positive_rate_100k () =
  List.iter
    (fun fp_rate ->
      let n = 100_000 in
      let b = Bloom.create ~expected:n ~fp_rate in
      for i = 0 to n - 1 do
        Bloom.add b i
      done;
      let probes = 100_000 in
      let fps = ref 0 in
      for i = 1 to probes do
        if Bloom.mem b (n + (i * 7)) then incr fps
      done;
      let rate = float_of_int !fps /. float_of_int probes in
      if rate > 2.0 *. fp_rate then
        Alcotest.failf "fp rate %.5f > 2x configured %.4f" rate fp_rate)
    [ 0.02; 0.01; 0.001 ]

let test_sizing_formulae () =
  (* m = -n ln p / (ln 2)^2: for n=1000, p=0.01 -> ~9585 bits, k ~ 7. *)
  let bits = Centaur.Permission_list.filter_bits ~expected:1000 ~fp_rate:0.01 in
  Alcotest.(check bool) "bits in band" true (bits > 9000 && bits < 10100);
  let k = Bloom.optimal_hashes ~bits ~expected:1000 in
  Alcotest.(check bool) "hashes in band" true (k >= 6 && k <= 8)

let test_create_validation () =
  Alcotest.check_raises "bad expected"
    (Invalid_argument "Bloom.create: expected must be positive") (fun () ->
      ignore (Bloom.create ~expected:0 ~fp_rate:0.01));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Bloom.create: fp_rate must be in (0, 1)") (fun () ->
      ignore (Bloom.create ~expected:10 ~fp_rate:1.5))

let test_cardinality_estimate () =
  let b = Bloom.create ~expected:500 ~fp_rate:0.01 in
  for i = 0 to 299 do
    Bloom.add b i
  done;
  let est = Bloom.cardinal_estimate b in
  if est < 250.0 || est > 350.0 then
    Alcotest.failf "estimate off: %.1f (expected ~300)" est

let test_fill_ratio_monotone () =
  let b = Bloom.create ~expected:100 ~fp_rate:0.05 in
  let r0 = Bloom.fill_ratio b in
  Bloom.add b 1;
  Bloom.add b 2;
  let r1 = Bloom.fill_ratio b in
  Alcotest.(check bool) "fills up" true (r1 > r0);
  Alcotest.(check bool) "starts empty" true (r0 = 0.0)

let test_size_accessors () =
  let b = Bloom.create ~expected:64 ~fp_rate:0.01 in
  Alcotest.(check bool) "bytes consistent" true
    (Bloom.size_bytes b = (Bloom.size_bits b + 7) / 8);
  Alcotest.(check bool) "hash count positive" true (Bloom.num_hashes b >= 1)

let suite =
  [ Alcotest.test_case "no false negatives" `Quick test_no_false_negatives;
    QCheck_alcotest.to_alcotest bloom_no_false_negatives_qcheck;
    Alcotest.test_case "false positive rate" `Quick test_false_positive_rate;
    Alcotest.test_case "false positive rate at 100k" `Quick
      test_false_positive_rate_100k;
    Alcotest.test_case "sizing formulae" `Quick test_sizing_formulae;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "cardinality estimate" `Quick
      test_cardinality_estimate;
    Alcotest.test_case "fill ratio monotone" `Quick test_fill_ratio_monotone;
    Alcotest.test_case "size accessors" `Quick test_size_accessors ]
