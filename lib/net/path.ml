type t = int list

let source = function
  | [] -> invalid_arg "Path.source: empty path"
  | n :: _ -> n

let rec destination = function
  | [] -> invalid_arg "Path.destination: empty path"
  | [ n ] -> n
  | _ :: rest -> destination rest

let length p = max 0 (List.length p - 1)

let rec contains p (n : int) =
  match p with
  | [] -> false
  | a :: rest -> a = n || contains rest n

(* Quadratic, but routing paths are a handful of hops and the scan
   allocates nothing. *)
let rec is_loop_free = function
  | [] -> true
  | a :: rest -> (not (contains rest a)) && is_loop_free rest

let next_hop = function
  | _ :: n :: _ -> Some n
  | _ -> None

let rec next_hop_of p n =
  match p with
  | [] | [ _ ] -> None
  | a :: (b :: _ as rest) -> if a = n then Some b else next_hop_of rest n

let rec suffix_from p n =
  match p with
  | [] -> None
  | a :: _ when a = n -> Some p
  | _ :: rest -> suffix_from rest n

let links p =
  let rec go acc = function
    | [] | [ _ ] -> List.rev acc
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
  in
  go [] p

let rec equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | x :: xs, y :: ys -> x = y && equal xs ys
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let compare (a : t) (b : t) = Stdlib.compare a b

let pp fmt p =
  Format.fprintf fmt "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Format.pp_print_int)
    p

let to_string p = Format.asprintf "%a" pp p
