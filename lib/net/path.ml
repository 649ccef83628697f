type t = int list

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

let rec equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | x :: xs, y :: ys -> x = y && equal xs ys
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let compare (a : t) (b : t) = Stdlib.compare a b

let to_string p = "<" ^ String.concat ", " (List.map string_of_int p) ^ ">"

type walk = Reached of t | Stuck of t | Looped of t

(* [visited] is the walk so far, newest first. A node is checked
   against the destination before the repeat test, so a walk stops at
   its destination even if the next-hop function would loop past it. *)
let follow next ~src ~dest =
  let rec go v visited =
    if v = dest then Reached (List.rev (v :: visited))
    else if contains visited v then Looped (List.rev (v :: visited))
    else
      match next v with
      | None -> Stuck (List.rev (v :: visited))
      | Some hop -> go hop (v :: visited)
  in
  go src []
