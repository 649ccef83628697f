(* Growable float sample buffer with the percentile the report uses. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 256 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let add_array t xs = Array.iter (add t) xs

let length t = t.len

let get t i = t.data.(i)

(* Linear interpolation between closest ranks; 0 when empty (the report
   prints n = 0 beside it). *)
let percentile t p =
  if t.len = 0 then 0.0 else Stats.percentile (Array.sub t.data 0 t.len) p

let median t = percentile t 50.0
