type link_data = {
  counter : int;
  plist : Permission_list.t;
}

(* Arena / struct-of-arrays layout: a link (parent, child) lives in a
   {e slot} of a set of parallel arrays (packed key, counter, Permission
   List, chain link). The key is one immediate int, [parent lsl 31 lor
   child], whose order is exactly (parent, child) lexicographic order,
   so every sorted view sorts immediate ints. No per-entry heap records:
   the only per-link allocation is the slot itself, and the arrays grow
   geometrically.

   The per-node adjacency needed by DerivePath is woven through the same
   arena: [l_next_in] chains the slots sharing a child (the in-edge list
   walked at multi-homed nodes). Chains are unordered; sorted views sort
   on extraction (adjacency lists are short).

   A link's slot is found by walking its child's in-chain. Chain heads
   and destination marks are node-indexed arrays over the graph's node
   bound: every graph's ids are a topology's nodes, so the graph holds
   no hash table. *)

let pack_shift = 31
let pack_mask = (1 lsl pack_shift) - 1
let max_node = pack_mask

let pack ~parent ~child = (parent lsl pack_shift) lor child
let key_parent k = k lsr pack_shift
let key_child k = k land pack_mask

let check_node what v =
  if v < 0 || v > max_node then
    invalid_arg (what ^ ": node id out of packed range")

let nil = -1

type t = {
  root_node : int;
  heads : int array; (* child -> first slot of its in-edge chain *)
  marks : Bytes.t; (* node -> ['\001'] when a destination *)
  (* Link arena, one slot per live link; [l_key.(s) = nil] on free slots
     (packed keys are non-negative). Freed slots are chained through
     [l_next_in] and reused before the arena grows. *)
  mutable l_key : int array;
  mutable l_counter : int array;
  mutable l_plist : Permission_list.t array;
  mutable l_next_in : int array;
  mutable slot_hwm : int; (* arena high-water mark *)
  mutable free_head : int;
  mutable link_count : int;
  mutable dest_count : int;
}

let initial_cap = 8

(* Every node id of [t] is below this. *)
let bound t = Array.length t.heads

let in_bound t v = v >= 0 && v < bound t

let check_id t what v =
  if not (in_bound t v) then invalid_arg (what ^ ": node id out of bound")

let create ~nodes ~root =
  if nodes < 1 || nodes > max_node + 1 then
    invalid_arg "Pgraph.create: node bound out of range";
  let t =
    { root_node = root;
      heads = Array.make nodes nil;
      marks = Bytes.make nodes '\000';
      l_key = Array.make initial_cap nil;
      l_counter = Array.make initial_cap 0;
      l_plist = Array.make initial_cap Permission_list.empty;
      l_next_in = Array.make initial_cap nil;
      slot_hwm = 0;
      free_head = nil;
      link_count = 0;
      dest_count = 0 }
  in
  check_id t "Pgraph.create" root;
  t

let root t = t.root_node

let is_dest t d = in_bound t d && Bytes.unsafe_get t.marks d <> '\000'

(* [f] on every destination, ascending. *)
let iter_dests t f =
  for d = 0 to bound t - 1 do
    if Bytes.unsafe_get t.marks d <> '\000' then f d
  done

(* The destinations that pass [keep], ascending. *)
let dests_where t keep =
  let acc = ref [] in
  iter_dests t (fun d -> if keep d then acc := d :: !acc);
  List.rev !acc

let dests t = dests_where t (fun _ -> true)

let mark_dest t d =
  check_id t "Pgraph.mark_dest" d;
  if not (is_dest t d) then begin
    t.dest_count <- t.dest_count + 1;
    Bytes.unsafe_set t.marks d '\001'
  end

let unmark_dest t d =
  if is_dest t d then begin
    t.dest_count <- t.dest_count - 1;
    Bytes.unsafe_set t.marks d '\000'
  end

(* First slot of [node]'s in-edge chain, [nil] when it has none. *)
let head t node = if in_bound t node then Array.unsafe_get t.heads node else nil

(* The slot of [parent -> child], [nil] when absent: a walk down the
   child's in-chain, as long as its in-degree. *)
let slot t ~parent ~child =
  if not (in_bound t parent && in_bound t child) then nil
  else begin
    let key = pack ~parent ~child in
    let s = ref t.heads.(child) in
    while !s <> nil && t.l_key.(!s) <> key do
      s := t.l_next_in.(!s)
    done;
    !s
  end

let grow_arena t =
  let cap = Array.length t.l_key in
  let cap' = 2 * cap in
  let grow_int a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.l_key <- grow_int t.l_key nil;
  t.l_counter <- grow_int t.l_counter 0;
  t.l_next_in <- grow_int t.l_next_in nil;
  let pl = Array.make cap' Permission_list.empty in
  Array.blit t.l_plist 0 pl 0 cap;
  t.l_plist <- pl

let alloc_slot t =
  if t.free_head <> nil then begin
    let s = t.free_head in
    t.free_head <- t.l_next_in.(s);
    s
  end
  else begin
    if t.slot_hwm = Array.length t.l_key then grow_arena t;
    let s = t.slot_hwm in
    t.slot_hwm <- s + 1;
    s
  end

(* The slot of [parent -> child] once both ids are checked, [nil] when
   absent. *)
let checked_slot t what ~parent ~child =
  if parent = child then invalid_arg (what ^ ": self-loop");
  check_id t what parent;
  check_id t what child;
  slot t ~parent ~child

(* The one way a link enters the graph: a fresh slot at the head of its
   child's in-chain. *)
let insert t ~parent ~child ~counter ~plist =
  let s = alloc_slot t in
  t.l_key.(s) <- pack ~parent ~child;
  t.l_counter.(s) <- counter;
  t.l_plist.(s) <- plist;
  t.l_next_in.(s) <- t.heads.(child);
  t.heads.(child) <- s;
  t.link_count <- t.link_count + 1

let put_link t ~parent ~child ~counter ~plist =
  match checked_slot t "Pgraph.add_link" ~parent ~child with
  | -1 -> insert t ~parent ~child ~counter ~plist
  | s ->
    t.l_counter.(s) <- counter;
    t.l_plist.(s) <- plist

let add_link t ~parent ~child ~data =
  put_link t ~parent ~child ~counter:data.counter ~plist:data.plist

(* Unlink slot [s] from [child]'s in-edge chain and free it. Chains are
   as short as the node's in-degree. *)
let release t ~child s =
  let next = t.l_next_in in
  let first = t.heads.(child) in
  if first = s then t.heads.(child) <- next.(s)
  else begin
    let p = ref first in
    while next.(!p) <> s do
      p := next.(!p)
    done;
    next.(!p) <- next.(s)
  end;
  t.l_key.(s) <- nil;
  t.l_plist.(s) <- Permission_list.empty;
  next.(s) <- t.free_head;
  t.free_head <- s;
  t.link_count <- t.link_count - 1

let remove_link t ~parent ~child =
  let s = slot t ~parent ~child in
  if s <> nil then release t ~child s

let add_use t ~parent ~child =
  match checked_slot t "Pgraph.add_use" ~parent ~child with
  | -1 ->
    insert t ~parent ~child ~counter:1 ~plist:Permission_list.empty;
    1
  | s ->
    let c = t.l_counter.(s) + 1 in
    t.l_counter.(s) <- c;
    c

let drop_use t ~parent ~child =
  let s = slot t ~parent ~child in
  if s = nil || t.l_counter.(s) < 1 then
    invalid_arg "Pgraph.drop_use: link not in use";
  let c = t.l_counter.(s) - 1 in
  if c = 0 then release t ~child s else t.l_counter.(s) <- c;
  c

let set_plist t ~parent ~child plist =
  match slot t ~parent ~child with
  | -1 -> invalid_arg "Pgraph.set_plist: link absent"
  | s -> t.l_plist.(s) <- plist

let mem_link t ~parent ~child = slot t ~parent ~child <> nil

let plist t ~parent ~child =
  let s = slot t ~parent ~child in
  if s = nil then Permission_list.empty else t.l_plist.(s)

let link_data t ~parent ~child =
  let s = slot t ~parent ~child in
  if s = nil then None
  else Some { counter = t.l_counter.(s); plist = t.l_plist.(s) }

let in_degree t node =
  let s = ref (head t node) in
  let deg = ref 0 in
  while !s <> nil do
    incr deg;
    s := t.l_next_in.(!s)
  done;
  !deg

let iter_parents t node f =
  let s = ref (head t node) in
  while !s <> nil do
    f (key_parent t.l_key.(!s));
    s := t.l_next_in.(!s)
  done

let parents_of t node =
  let acc = ref [] in
  let s = ref (head t node) in
  while !s <> nil do
    acc :=
      ( key_parent t.l_key.(!s),
        { counter = t.l_counter.(!s); plist = t.l_plist.(!s) } )
      :: !acc;
    s := t.l_next_in.(!s)
  done;
  List.sort (fun (p1, _) (p2, _) -> Int.compare p1 p2) !acc

(* Visit every live slot in arena order (not key order). *)
let iter_slots t f =
  for s = 0 to t.slot_hwm - 1 do
    if t.l_key.(s) <> nil then f s
  done

let links t =
  let acc = ref [] in
  iter_slots t (fun s -> acc := s :: !acc);
  List.sort (fun s1 s2 -> Int.compare t.l_key.(s1) t.l_key.(s2)) !acc
  |> List.map (fun s ->
         ( key_parent t.l_key.(s),
           key_child t.l_key.(s),
           { counter = t.l_counter.(s); plist = t.l_plist.(s) } ))

let num_links t = t.link_count

let num_permission_lists t =
  let n = ref 0 in
  iter_slots t (fun s ->
      if not (Permission_list.is_empty t.l_plist.(s)) then incr n);
  !n

let permission_lists t =
  let acc = ref [] in
  iter_slots t (fun s ->
      let pl = t.l_plist.(s) in
      if not (Permission_list.is_empty pl) then acc := pl :: !acc);
  !acc

let nodes t =
  let acc = ref [ t.root_node ] in
  iter_slots t (fun s ->
      let key = t.l_key.(s) in
      acc := key_parent key :: key_child key :: !acc);
  List.sort_uniq Int.compare !acc

let copy t =
  { t with
    heads = Array.copy t.heads;
    marks = Bytes.copy t.marks;
    l_key = Array.copy t.l_key;
    l_counter = Array.copy t.l_counter;
    l_plist = Array.copy t.l_plist;
    l_next_in = Array.copy t.l_next_in }

(* A step, signed-packed so a node id up to [max_node] fits either half
   and the next hop may be [nil]. *)
let step ~parent ~next = (next lsl pack_shift) lor parent
let step_parent h = h land pack_mask
let step_next h = h asr pack_shift

(* BuildGraph's first pass, kept flat: a packed link key -> chain-head
   table plus a traversal arena (value and chain-link arrays, grown
   geometrically). A traversal packs like a step, the destination in the
   parent's half. Resident cost is two ints per traversal and one table
   slot per distinct link; nothing is kept per path. *)
module Traversals = struct
  type t = {
    heads : Flat_tbl.t; (* packed link -> head of its traversal chain *)
    mutable tv : int array; (* packed traversals *)
    mutable tn : int array; (* next index in the link's chain; [nil] ends *)
    mutable len : int;
  }

  (* [hint] sizes the link table and the arena for an expected number of
     distinct links, so a large record ramps up in one or two doublings
     instead of rehash-growing from 16 slots. *)
  let create ~hint =
    let hint = max 16 hint in
    { heads = Flat_tbl.create ~initial:(2 * hint) ();
      tv = Array.make hint 0;
      tn = Array.make hint 0;
      len = 0 }

  let push r key v =
    if r.len = Array.length r.tv then begin
      let cap = 2 * r.len in
      let tv = Array.make cap 0 and tn = Array.make cap 0 in
      Array.blit r.tv 0 tv 0 r.len;
      Array.blit r.tn 0 tn 0 r.len;
      r.tv <- tv;
      r.tn <- tn
    end;
    r.tv.(r.len) <- v;
    r.tn.(r.len) <- Flat_tbl.find_default r.heads key ~default:nil;
    Flat_tbl.set r.heads key r.len;
    r.len <- r.len + 1

  let add r ~parent ~child ~dest ~next =
    push r (pack ~parent ~child) (step ~parent:dest ~next)

  (* Walks path [p] to [dest] with a three-node window: link [a -> b]
     gets the traversal (dest, the node after [b]). *)
  let rec add_links ~what r dest = function
    | a :: (b :: rest as tail) ->
      check_node what a;
      check_node what b;
      add r ~parent:a ~child:b ~dest
        ~next:(match rest with c :: _ -> c | [] -> nil);
      add_links ~what r dest tail
    | [ _ ] | [] -> ()

  let add_path r p =
    add_links ~what:"Pgraph.Traversals.add_path" r (Path.destination p) p

  (* Chains are re-threaded into [into]'s arena; traversal order within a
     link is scheduling-dependent, which is fine — a Permission List is a
     set structure, insertion order never reaches the result. *)
  let merge ~into r =
    Flat_tbl.iter r.heads (fun key head ->
        let i = ref head in
        while !i <> nil do
          push into key r.tv.(!i);
          i := r.tn.(!i)
        done)

  (* The second pass: in-degrees from a one-pass child count, then every
     link's traversal count and, only for links into multi-homed
     children, its Permission List sorted in [scratch]. The same
     [Some scratch] is handed out for every such link, so the pass
     allocates nothing per link. *)
  let iter r scratch f =
    let indeg = Flat_tbl.create ~initial:(2 * Flat_tbl.length r.heads) () in
    Flat_tbl.iter r.heads (fun key _ ->
        ignore (Flat_tbl.add_to indeg (key_child key) 1));
    let filled = Some scratch in
    Flat_tbl.iter r.heads (fun key head ->
        let multi_homed =
          Flat_tbl.find_default indeg (key_child key) ~default:0 > 1
        in
        if multi_homed then Permission_list.Scratch.clear scratch;
        let count = ref 0 and i = ref head in
        while !i <> nil do
          incr count;
          if multi_homed then begin
            let v = r.tv.(!i) in
            Permission_list.Scratch.push scratch ~dest:(step_parent v)
              ~next:(step_next v)
          end;
          i := r.tn.(!i)
        done;
        f ~key ~count:!count (if multi_homed then filled else None))
end

(* BuildGraph (paper Table 2), with retroactive Permission Lists: the
   paper's inline formulation attaches an entry only when the node is
   already multi-homed at insertion time; building from the full path set
   we instead collect every traversal per link and attach Permission
   Lists to all in-links of nodes that end up multi-homed, which is the
   fixed point the incremental protocol maintains ("a Permission List
   will be created if a multi-homed node appears", §4.3). *)
let build_graph ~what ~allow_multi ~root paths =
  let seen_dest = Hashtbl.create 16 in
  let seen_path = Hashtbl.create 16 in
  let paths =
    List.filter
      (fun p ->
        (match p with
        | [] | [ _ ] -> invalid_arg (what ^ ": path too short")
        | first :: _ when first <> root ->
          invalid_arg (what ^ ": path does not start at root")
        | _ -> ());
        if not (Path.is_loop_free p) then
          invalid_arg (what ^ ": path has a loop");
        let d = Path.destination p in
        if Hashtbl.mem seen_path p then false
        else begin
          if (not allow_multi) && Hashtbl.mem seen_dest d then
            invalid_arg (what ^ ": two paths for one destination");
          Hashtbl.replace seen_dest d ();
          Hashtbl.add seen_path p ();
          true
        end)
      paths
  in
  let r = Traversals.create ~hint:(List.length paths) in
  List.iter
    (fun p -> Traversals.add_links ~what r (Path.destination p) p)
    paths;
  (* Every id is now checked against [max_node]; the graph spans one
     past the largest. *)
  let top = List.fold_left (List.fold_left max) root paths in
  let graph = create ~nodes:(top + 1) ~root in
  List.iter (fun p -> mark_dest graph (Path.destination p)) paths;
  Traversals.iter r (Permission_list.Scratch.create ())
    (fun ~key ~count pl ->
      put_link graph ~parent:(key_parent key) ~child:(key_child key)
        ~counter:count
        ~plist:
          (match pl with
          | Some sc -> Permission_list.Scratch.freeze sc
          | None -> Permission_list.empty));
  graph

let of_paths ~root paths =
  build_graph ~what:"Pgraph.of_paths" ~allow_multi:false ~root paths

let of_multipaths ~root paths =
  build_graph ~what:"Pgraph.of_multipaths" ~allow_multi:true ~root paths

(* One step of DerivePath (paper Table 1): the parent the walk moves to
   from [node], having arrived from [next] — [node]'s next hop in the
   final path, [nil] while standing on the destination, which is what
   Permit matches against. A single-homed node's lone parent; at a
   multi-homed node the in-edge chain is walked in place and, among
   several permitting parents, the lowest id wins, deterministically.
   [nil] when no parent qualifies. Reads only [node]'s in-links and
   their Permission Lists. *)
let derive_step t ~dest ~node ~next =
  let first = head t node in
  if first = nil then nil
  else if t.l_next_in.(first) = nil then key_parent t.l_key.(first)
  else begin
    let permitted = ref nil in
    let s = ref first in
    while !s <> nil do
      if Permission_list.permit t.l_plist.(!s) ~dest ~next then begin
        let parent = key_parent t.l_key.(!s) in
        if !permitted = nil || parent < !permitted then permitted := parent
      end;
      s := t.l_next_in.(!s)
    done;
    !permitted
  end

let rec step_from prev node = function
  | x :: rest when x = node && prev <> nil ->
    step ~parent:prev ~next:(match rest with n :: _ -> n | [] -> nil)
  | x :: rest -> step_from x node rest
  | [] -> invalid_arg "Pgraph.path_step: node not on the path"

let path_step p ~node = step_from nil node p

(* DerivePath: backtrack from the destination one step at a time until
   the root. *)
let rec derive_from t ~dest visit current prev fuel =
  fuel > 0
  &&
  let parent = derive_step t ~dest ~node:current ~next:prev in
  parent <> nil
  && begin
    visit parent;
    parent = t.root_node || derive_from t ~dest visit parent current (fuel - 1)
  end

let derive_walk t ~dest visit =
  visit dest;
  dest = t.root_node || derive_from t ~dest visit dest nil (num_links t + 1)

let derive_path t ~dest =
  let acc = ref [] in
  if derive_walk t ~dest (fun v -> acc := v :: !acc) then Some !acc else None

let derive_all t =
  List.filter_map
    (fun d ->
      match derive_path t ~dest:d with
      | Some p -> Some (d, p)
      | None -> None)
    (dests t)

(* Multi-path derivation: backtrack from the destination following every
   permitted in-link (all of a multi-homed node's permitting links, the
   lone parent elsewhere). The union of several loop-free paths can
   contain cycles, so each branch refuses to revisit a node already on
   it. *)
let derive_paths ?(limit = 64) t ~dest =
  if dest = t.root_node then [ [ t.root_node ] ]
  else begin
    let results = ref [] in
    let count = ref 0 in
    (* Fuel bounds the total DFS work, not just completed results, so
       adversarial graphs with many deep dead ends cannot blow up. *)
    let fuel = ref (max 4096 (64 * limit)) in
    let rec go current prev acc =
      decr fuel;
      if !count < limit && !fuel > 0 then
        if current = t.root_node then begin
          incr count;
          results := acc :: !results
        end
        else begin
          let follow parent =
            if not (List.mem parent acc) then go parent current (parent :: acc)
          in
          let first = head t current in
          if first <> nil then
            if t.l_next_in.(first) = nil then
              follow (key_parent t.l_key.(first))
            else begin
              (* Sorted for deterministic result order. *)
              let parents = ref [] in
              let s = ref first in
              while !s <> nil do
                if Permission_list.permit t.l_plist.(!s) ~dest ~next:prev then
                  parents := key_parent t.l_key.(!s) :: !parents;
                s := t.l_next_in.(!s)
              done;
              List.iter follow (List.sort Int.compare !parents)
            end
        end
    in
    go dest nil [ dest ];
    List.sort_uniq Path.compare !results
  end

(* The two sides may have different node bounds: links are matched
   through [slot], destinations through [is_dest]. *)
let equal a b =
  a.root_node = b.root_node
  && a.link_count = b.link_count
  && a.dest_count = b.dest_count
  && dests_where a (fun d -> not (is_dest b d)) = []
  &&
  let ok = ref true in
  iter_slots a (fun s ->
      if !ok then begin
        let key = a.l_key.(s) in
        match slot b ~parent:(key_parent key) ~child:(key_child key) with
        | -1 -> ok := false
        | s' ->
          if not (Permission_list.equal a.l_plist.(s) b.l_plist.(s')) then
            ok := false
      end);
  !ok

type delta = {
  add_links : (int * int * Permission_list.t) list;
  remove_links : (int * int) list;
  add_dests : int list;
  remove_dests : int list;
}

let delta_is_empty d =
  d.add_links = [] && d.remove_links = [] && d.add_dests = []
  && d.remove_dests = []

let delta_units d = List.length d.add_links + List.length d.remove_links

(* Both sides are iterated in place over their arenas — no intermediate
   sorted link lists. Results are sorted on the (small) delta, by
   immediate-int key, so the output order is (parent, child) order. *)
let diff ~old_ ~new_ =
  let added = ref [] in
  iter_slots new_ (fun s ->
      let key = new_.l_key.(s) in
      let pl = new_.l_plist.(s) in
      match slot old_ ~parent:(key_parent key) ~child:(key_child key) with
      | -1 -> added := (key, pl) :: !added
      | os ->
        if not (Permission_list.equal old_.l_plist.(os) pl) then
          added := (key, pl) :: !added);
  let add_links =
    List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) !added
    |> List.map (fun (k, pl) -> (key_parent k, key_child k, pl))
  in
  let removed = ref [] in
  iter_slots old_ (fun s ->
      let key = old_.l_key.(s) in
      if not (mem_link new_ ~parent:(key_parent key) ~child:(key_child key)) then
        removed := key :: !removed);
  let remove_links =
    List.sort Int.compare !removed
    |> List.map (fun k -> (key_parent k, key_child k))
  in
  { add_links;
    remove_links;
    add_dests = dests_where new_ (fun d -> not (is_dest old_ d));
    remove_dests = dests_where old_ (fun d -> not (is_dest new_ d)) }

let apply t delta =
  List.iter
    (fun (parent, child) -> remove_link t ~parent ~child)
    delta.remove_links;
  List.iter
    (fun (parent, child, plist) -> put_link t ~parent ~child ~counter:0 ~plist)
    delta.add_links;
  List.iter (mark_dest t) delta.add_dests;
  List.iter (unmark_dest t) delta.remove_dests

let pp fmt t =
  Format.fprintf fmt "@[<v>P-graph root=%d dests=[%a]@," t.root_node
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       Format.pp_print_int)
    (dests t);
  List.iter
    (fun (p, c, d) ->
      if Permission_list.is_empty d.plist then
        Format.fprintf fmt "  %d -> %d (x%d)@," p c d.counter
      else
        Format.fprintf fmt "  %d -> %d (x%d) PL=%a@," p c d.counter
          Permission_list.pp d.plist)
    (links t);
  Format.fprintf fmt "@]"
