(* Privacy analysis (paper §6.2), kept as a test oracle: both
   directions of Claim 2's reconstruction over the public P-graph API. *)

open Centaur

let paths_of_pgraph g = Pgraph.derive_all g

let pgraph_of_paths ~root paths = Pgraph.of_paths ~root paths

let equivalent g =
  let announced = paths_of_pgraph g in
  let rebuilt = pgraph_of_paths ~root:(Pgraph.root g) (List.map snd announced) in
  let readback = paths_of_pgraph rebuilt in
  announced = readback

let possible_policy_authors g ~parent ~child =
  if Permission_list.is_empty (Pgraph.plist g ~parent ~child) then []
  else
    (* Paths through the link, truncated at the link: any node on every
       such upstream segment could have imposed the restriction. *)
    let upstream_segments =
      List.filter_map
        (fun (_dest, p) ->
          if List.mem (parent, child) (Helpers.path_links p) then begin
            let rec take acc = function
              | [] -> List.rev acc
              | n :: _ when n = parent -> List.rev (parent :: acc)
              | n :: rest -> take (n :: acc) rest
            in
            Some (take [] p)
          end
          else None)
        (Pgraph.derive_all g)
    in
    (match upstream_segments with
    | [] -> []
    | first :: rest ->
      List.filter
        (fun n -> List.for_all (fun seg -> List.mem n seg) rest)
        first)
