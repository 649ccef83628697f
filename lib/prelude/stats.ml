let mean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let log_sum =
      Array.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample";
          acc +. log x)
        0.0 xs
    in
    exp (log_sum /. float_of_int n)
  end

let variance xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let m = mean xs in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sq /. float_of_int n
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

type cdf = (float * float) array

let cdf xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    Array.mapi
      (fun i v -> (v, float_of_int (i + 1) /. float_of_int n))
      sorted
  end

let cdf_at c v =
  (* Largest fraction whose value is <= v; binary search over the sorted
     points. *)
  let n = Array.length c in
  if n = 0 then 0.0
  else begin
    let rec go lo hi best =
      if lo > hi then best
      else
        let mid = (lo + hi) / 2 in
        let value, frac = c.(mid) in
        if value <= v then go (mid + 1) hi frac else go lo (mid - 1) best
    in
    go 0 (n - 1) 0.0
  end

let fraction_below a b =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.fraction_below: empty input";
  if n <> Array.length b then invalid_arg "Stats.fraction_below: length mismatch";
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) < b.(i) then incr wins
  done;
  float_of_int !wins /. float_of_int n

type histogram = { bounds : float array; counts : int array }

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty input";
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let bounds = Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. width)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
      counts.(i) <- counts.(i) + 1)
    xs;
  { bounds; counts }

let summary_line label xs =
  let n = Array.length xs in
  if n = 0 then Printf.sprintf "%s: n=0" label
  else
    let _, hi = min_max xs in
    Printf.sprintf "%s: n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
      label n (mean xs) (percentile xs 50.0) (percentile xs 90.0)
      (percentile xs 99.0) hi
