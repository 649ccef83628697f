module Iset = Set.Make (Int)

module Next_key = struct
  type t = int option

  let compare (a : t) (b : t) =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> Int.compare x y
end

module Nmap = Map.Make (Next_key)

type t = Iset.t Nmap.t

let empty = Nmap.empty

let is_empty = Nmap.is_empty

let add t ~dest ~next =
  Nmap.update next
    (function
      | None -> Some (Iset.singleton dest)
      | Some set -> Some (Iset.add dest set))
    t

let permit t ~dest ~next =
  match Nmap.find next t with
  | set -> Iset.mem dest set
  | exception Not_found -> false

let remove t ~dest ~next =
  Nmap.update next
    (function
      | None -> None
      | Some set ->
        let set = Iset.remove dest set in
        if Iset.is_empty set then None else Some set)
    t

let remove_dest t ~dest =
  Nmap.filter_map
    (fun _next set ->
      let set = Iset.remove dest set in
      if Iset.is_empty set then None else Some set)
    t

let num_entries t = Nmap.cardinal t

let dests t =
  Nmap.fold (fun _next set acc -> Iset.union set acc) t Iset.empty
  |> Iset.elements

let iter_dests t f = Nmap.iter (fun _next set -> Iset.iter f set) t

let entries t =
  Nmap.bindings t |> List.map (fun (next, set) -> (next, Iset.elements set))

let next_for t ~dest =
  Nmap.fold
    (fun next set acc ->
      if Iset.mem dest set then
        match acc with
        | None -> Some next
        | Some _ -> acc (* keep the smallest: maps iterate ascending *)
      else acc)
    t None

let merge a b =
  Nmap.union (fun _next s1 s2 -> Some (Iset.union s1 s2)) a b

(* The (destination, next hop) pairs in one list but not the other,
   entry by entry: a well-formed list gives each destination one next
   hop, so these destinations are exactly those whose mapping changed.
   Entries the two lists share physically (persistent updates keep
   untouched entries) are skipped whole. *)
let iter_changed a b f =
  if a != b then begin
    let one_way x y =
      Nmap.iter
        (fun next set ->
          match Nmap.find_opt next y with
          | None -> Iset.iter f set
          | Some set' ->
            if set != set' then
              Iset.iter (fun d -> if not (Iset.mem d set') then f d) set)
        x
    in
    one_way a b;
    one_way b a
  end

let changed_dests a b =
  let acc = ref [] in
  iter_changed a b (fun d -> acc := d :: !acc);
  List.sort_uniq Int.compare !acc

let equal a b = a == b || Nmap.equal Iset.equal a b

type compressed = {
  c_entries : (int option * Bloom.t) list;
  c_bytes : int;
}

let compress t ~fp_rate =
  let entries, bytes =
    Nmap.fold
      (fun next set (es, bytes) ->
        (* Well-formed lists never hold an empty entry ([remove_dest]
           drops them), but size defensively. *)
        let filter =
          Bloom.create ~expected:(max 1 (Iset.cardinal set)) ~fp_rate
        in
        Iset.iter (Bloom.add filter) set;
        ((next, filter) :: es, bytes + 4 + Bloom.size_bytes filter))
      t ([], 0)
  in
  { c_entries = entries; c_bytes = bytes }

let compressed_bytes c = c.c_bytes

let compressed_permit c ~dest ~next =
  List.exists
    (fun (n, filter) -> n = next && Bloom.mem filter dest)
    c.c_entries

let compressed_size_bytes t ~fp_rate =
  Nmap.fold
    (fun _next set acc ->
      let n = Iset.cardinal set in
      let bloom_bytes =
        if n = 0 then 0 else (Bloom.optimal_bits ~expected:n ~fp_rate + 7) / 8
      in
      acc + 4 + bloom_bytes)
    t 0

let pp fmt t =
  let pp_next fmt = function
    | None -> Format.pp_print_string fmt "self"
    | Some n -> Format.pp_print_int fmt n
  in
  let pp_entry fmt (next, ds) =
    Format.fprintf fmt "{dests=[%a]; next=%a}"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         Format.pp_print_int)
      ds pp_next next
  in
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_entry)
    (entries t)

(* Alias for use inside [Exhaustive], where [empty] is shadowed. *)
let per_dest_next_empty = empty

module Exhaustive = struct
  module Pset = Set.Make (struct
    type t = Path.t

    let compare = Path.compare
  end)

  type t = Pset.t

  let empty = Pset.empty

  let add_path t p = Pset.add p t

  let permit_path t p = Pset.mem p t

  let paths t = Pset.elements t

  let to_per_dest_next t ~multi_homed =
    let compiled =
      Pset.fold
        (fun p acc ->
          if Path.contains p multi_homed then
            let dest = Path.destination p in
            let next = Path.next_hop_of p multi_homed in
            add acc ~dest ~next
          else acc)
        t per_dest_next_empty
    in
    fun ~dest ~next -> permit compiled ~dest ~next
end
