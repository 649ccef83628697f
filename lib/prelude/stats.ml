let mean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

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

let fraction_below a b =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.fraction_below: empty input";
  if n <> Array.length b then invalid_arg "Stats.fraction_below: length mismatch";
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) < b.(i) then incr wins
  done;
  float_of_int !wins /. float_of_int n
