(* Flat layout, indexed by node id wherever a node id is the key:

   - destinations ([d_path], [d_flags]): the installed path (the
     root's own mark is its one-node path) and flag bits (marked on the
     wire, queued for the next flush);
   - link slots (recycled through a free list): the §4.3 use counter,
     the child's chain of in-links (headed in [in_head]), through which
     a link's slot is found, and the state last put on the wire (bare,
     or the Permission List announced); [in_live] counts the links of a
     child's chain that are in the current graph;
   - one bit row per child ([enters]): the destinations whose installed
     path enters it. A link's Permission List is read back off its
     child's row: the destinations whose path enters the child from the
     link's parent, each with the child's next hop on it. So [set_path]
     keeps no list: the flush fills a scratch for each queued link into a
     multi-homed child, compares it with the list on the wire and
     allocates a list only when it changed.

   A link slot lives, and stays on its child's chain, while the link is
   in the current graph or on the wire (or queued to leave it); the
   flush that finds it in neither frees it. *)

let nil = -1

(* Destination flag bits. *)
let wire_bit = 1
let queued_bit = 2

(* Link flag bits. *)
let queued_link = 1

(* Link wire states. *)
let wire_none = 0
let wire_bare = 1
let wire_plist = 2

type t = {
  root_node : int;
  d_path : Path.t array; (* [] when no path is installed *)
  d_flags : int array;
  mutable n_queued_dests : int;
  mutable l_key : int array;
  mutable l_count : int array;
  mutable l_next_in : int array; (* next in-link of the child *)
  mutable l_wire : int array;
  mutable l_wire_plist : Permission_list.t array;
  mutable l_flags : int array;
  mutable l_hwm : int;
  mutable l_free : int; (* runs through [l_next_in] *)
  in_head : int array; (* child -> first in-link slot, or [nil] *)
  in_live : int array; (* child -> its in-links with a use count *)
  enters : Bit_rows.t; (* child -> destinations whose path enters it *)
  plist_scratch : Permission_list.scratch;
  (* Link slots touched since the last flush. *)
  mutable queued_links : int array;
  mutable n_queued_links : int;
  (* When set, the next flush re-announces current links and marks even
     where they equal the wire state — receivers may hold damaged copies
     (see invalidate_wire). Cleared by the flush. *)
  mutable resend_all : bool;
}

let initial_cap = 16

let create ~root ~nodes =
  { root_node = root;
    d_path = Array.make nodes [];
    d_flags = Array.make nodes 0;
    n_queued_dests = 0;
    l_key = Array.make initial_cap nil;
    l_count = Array.make initial_cap 0;
    l_next_in = Array.make initial_cap nil;
    l_wire = Array.make initial_cap wire_none;
    l_wire_plist = Array.make initial_cap Permission_list.empty;
    l_flags = Array.make initial_cap 0;
    l_hwm = 0;
    l_free = nil;
    in_head = Array.make nodes nil;
    in_live = Array.make nodes 0;
    enters = Bit_rows.create nodes;
    plist_scratch = Permission_list.Scratch.create ();
    queued_links = Array.make initial_cap nil;
    n_queued_links = 0;
    resend_all = false }

let root t = t.root_node

let nodes t = Array.length t.d_path

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* --- destinations --- *)

let queue_dest t d =
  let f = t.d_flags.(d) in
  if f land queued_bit = 0 then begin
    t.d_flags.(d) <- f lor queued_bit;
    t.n_queued_dests <- t.n_queued_dests + 1
  end

(* --- link slots --- *)

(* The slot of [parent -> child], [nil] when it has none: a walk down
   the child's chain, as long as its in-degree plus the links into it
   that await the flush that frees them. *)
let find_link t ~parent ~child =
  let key = Pgraph.pack ~parent ~child in
  let l = ref t.in_head.(child) in
  while !l <> nil && t.l_key.(!l) <> key do
    l := t.l_next_in.(!l)
  done;
  !l

let link_alloc t ~parent ~child =
  let s =
    if t.l_free <> nil then begin
      let s = t.l_free in
      t.l_free <- t.l_next_in.(s);
      s
    end
    else begin
      if t.l_hwm = Array.length t.l_key then begin
        t.l_key <- grow t.l_key nil;
        t.l_count <- grow t.l_count 0;
        t.l_next_in <- grow t.l_next_in nil;
        t.l_wire <- grow t.l_wire wire_none;
        t.l_wire_plist <- grow t.l_wire_plist Permission_list.empty;
        t.l_flags <- grow t.l_flags 0
      end;
      let s = t.l_hwm in
      t.l_hwm <- s + 1;
      s
    end
  in
  t.l_key.(s) <- Pgraph.pack ~parent ~child;
  t.l_count.(s) <- 0;
  t.l_next_in.(s) <- t.in_head.(child);
  t.in_head.(child) <- s;
  t.l_wire.(s) <- wire_none;
  t.l_wire_plist.(s) <- Permission_list.empty;
  t.l_flags.(s) <- 0;
  s

(* Unlink [l] from its child's chain. *)
let unchain_in t child l =
  let head = t.in_head.(child) in
  if head = l then t.in_head.(child) <- t.l_next_in.(l)
  else begin
    let p = ref head in
    while t.l_next_in.(!p) <> l do
      p := t.l_next_in.(!p)
    done;
    t.l_next_in.(!p) <- t.l_next_in.(l)
  end

let link_free t s =
  unchain_in t (Pgraph.key_child t.l_key.(s)) s;
  t.l_key.(s) <- nil;
  t.l_flags.(s) <- 0;
  t.l_wire_plist.(s) <- Permission_list.empty;
  t.l_next_in.(s) <- t.l_free;
  t.l_free <- s

let link_flag t l bit = t.l_flags.(l) land bit <> 0

let set_link_flag t l bit on =
  let f = t.l_flags.(l) in
  t.l_flags.(l) <- (if on then f lor bit else f land lnot bit)

let queue_link t s =
  if not (link_flag t s queued_link) then begin
    set_link_flag t s queued_link true;
    if t.n_queued_links = Array.length t.queued_links then
      t.queued_links <- grow t.queued_links nil;
    t.queued_links.(t.n_queued_links) <- s;
    t.n_queued_links <- t.n_queued_links + 1
  end

(* A child is multi-homed when two or more of its in-links are in the
   current graph; exactly then its in-links carry Permission Lists
   (paper §4.1/§4.3). *)
let multi_homed t child = t.in_live.(child) > 1

(* The one in-link of [child] in the current graph other than [l]
   (called when the child has two, or has one and [l] just left). *)
let other_live t child l =
  let o = ref t.in_head.(child) in
  while !o = l || t.l_count.(!o) = 0 do
    o := t.l_next_in.(!o)
  done;
  !o

(* Fill the scratch with a link's Permission List: every installed path
   that enters the child from the link's parent, as (destination, next
   hop of the child). *)
let fill_plist t l =
  let sc = t.plist_scratch in
  Permission_list.Scratch.clear sc;
  let parent = Pgraph.key_parent t.l_key.(l) and child = Pgraph.key_child t.l_key.(l) in
  let d = ref (Bit_rows.next t.enters child 0) in
  while !d >= 0 do
    let h = Pgraph.path_step t.d_path.(!d) ~node:child in
    if Pgraph.step_parent h = parent then
      Permission_list.Scratch.push sc ~dest:!d ~next:(Pgraph.step_next h);
    d := Bit_rows.next t.enters child (!d + 1)
  done

(* One more installed path, toward [dest], uses [parent -> child]. *)
let add_use t ~dest ~parent ~child =
  let l =
    match find_link t ~parent ~child with
    | -1 -> link_alloc t ~parent ~child
    | l -> l
  in
  if t.l_count.(l) = 0 then begin
    (* The link enters the graph. A second in-link makes the child
       multi-homed: the first one starts announcing its Permission
       List. *)
    t.in_live.(child) <- t.in_live.(child) + 1;
    if t.in_live.(child) = 2 then queue_link t (other_live t child l)
  end;
  t.l_count.(l) <- t.l_count.(l) + 1;
  queue_link t l;
  Bit_rows.add t.enters child dest

(* One installed path fewer, toward [dest], uses [parent -> child]. *)
let drop_use t ~dest ~parent ~child =
  let l = find_link t ~parent ~child in
  t.l_count.(l) <- t.l_count.(l) - 1;
  queue_link t l;
  if t.l_count.(l) = 0 then begin
    (* The link leaves the graph (its slot stays chained until the
       flush); a child left with one in-link is no longer multi-homed,
       so that link goes back to announcing no Permission List. *)
    t.in_live.(child) <- t.in_live.(child) - 1;
    if t.in_live.(child) = 1 then queue_link t (other_live t child l)
  end;
  Bit_rows.remove t.enters child dest

let rec iter_links f t ~dest = function
  | parent :: (child :: _ as tail) ->
    f t ~dest ~parent ~child;
    iter_links f t ~dest tail
  | [] | [ _ ] -> ()

(* Install [p] ([] for none) as [dest]'s path. *)
let replace_path t ~dest p =
  iter_links drop_use t ~dest t.d_path.(dest);
  iter_links add_use t ~dest p;
  t.d_path.(dest) <- p

let in_range t d = d >= 0 && d < nodes t

let path_of t ~dest =
  if not (in_range t dest) then None
  else match t.d_path.(dest) with [] -> None | p -> Some p

let dests t =
  let acc = ref [] in
  for d = nodes t - 1 downto 0 do
    if t.d_path.(d) <> [] then acc := d :: !acc
  done;
  !acc

let rec all_in_range t = function
  | [] -> true
  | v :: rest -> in_range t v && all_in_range t rest

let set_path t ~dest path =
  if not (in_range t dest) then invalid_arg "Builder.set_path: node id out of range";
  (match path with
  | None -> ()
  | Some p ->
    (match p with
    | [] -> invalid_arg "Builder.set_path: path too short"
    | first :: _ when first <> t.root_node ->
      invalid_arg "Builder.set_path: path does not start at root"
    | _ -> ());
    if not (all_in_range t p) then
      invalid_arg "Builder.set_path: node id out of range";
    if not (Path.is_loop_free p) then
      invalid_arg "Builder.set_path: path has a loop";
    if Path.destination p <> dest then
      invalid_arg "Builder.set_path: path destination mismatch");
  let old_path = t.d_path.(dest) in
  match path with
  | None ->
    if old_path <> [] then begin
      replace_path t ~dest [];
      queue_dest t dest
    end
  | Some p ->
    if not (Path.equal old_path p) then begin
      replace_path t ~dest p;
      queue_dest t dest
    end

let counter t ~parent ~child =
  if not (in_range t parent && in_range t child) then 0
  else
    match find_link t ~parent ~child with
    | -1 -> 0
    | l -> t.l_count.(l)

let invalidate_wire t =
  t.resend_all <- true;
  for l = 0 to t.l_hwm - 1 do
    if t.l_key.(l) <> nil then queue_link t l
  done;
  for d = 0 to nodes t - 1 do
    if t.d_path.(d) <> [] || t.d_flags.(d) <> 0 then queue_dest t d
  done

let empty_delta =
  { Pgraph.add_links = []; remove_links = []; add_dests = []; remove_dests = [] }

(* Compare each queued link with its wire state, in descending key
   order so the consed lists come out ascending. *)
let flush_links t =
  let queued = Array.sub t.queued_links 0 t.n_queued_links in
  t.n_queued_links <- 0;
  Array.stable_sort (fun a b -> Int.compare t.l_key.(b) t.l_key.(a)) queued;
  let add_links = ref [] and remove_links = ref [] in
  Array.iter
    (fun l ->
      set_link_flag t l queued_link false;
      let key = t.l_key.(l) in
      let parent = Pgraph.key_parent key and child = Pgraph.key_child key in
      if t.l_count.(l) = 0 then begin
        if t.l_wire.(l) <> wire_none then
          remove_links := (parent, child) :: !remove_links;
        link_free t l
      end
      else if not (multi_homed t child) then begin
        if t.l_wire.(l) <> wire_bare || t.resend_all then begin
          t.l_wire.(l) <- wire_bare;
          t.l_wire_plist.(l) <- Permission_list.empty;
          add_links := (parent, child, None) :: !add_links
        end
      end
      else begin
        fill_plist t l;
        let same =
          t.l_wire.(l) = wire_plist
          && Permission_list.Scratch.equal t.plist_scratch t.l_wire_plist.(l)
        in
        if (not same) || t.resend_all then begin
          let pl =
            if same then t.l_wire_plist.(l)
            else Permission_list.Scratch.freeze t.plist_scratch
          in
          t.l_wire.(l) <- wire_plist;
          t.l_wire_plist.(l) <- pl;
          add_links := (parent, child, Some pl) :: !add_links
        end
      end)
    queued;
  (!add_links, !remove_links)

(* Compare each queued destination with its wire state, scanning down
   (so the consed lists come out ascending) until the last queued one. *)
let flush_dests t =
  let add_dests = ref [] and remove_dests = ref [] in
  let d = ref (nodes t) in
  while t.n_queued_dests > 0 do
    decr d;
    let flags = t.d_flags.(!d) in
    if flags land queued_bit <> 0 then begin
      t.n_queued_dests <- t.n_queued_dests - 1;
      let flags = flags land lnot queued_bit in
      let now = t.d_path.(!d) <> [] and before = flags land wire_bit <> 0 in
      if now && ((not before) || t.resend_all) then begin
        t.d_flags.(!d) <- flags lor wire_bit;
        add_dests := !d :: !add_dests
      end
      else if before && not now then begin
        t.d_flags.(!d) <- flags land lnot wire_bit;
        remove_dests := !d :: !remove_dests
      end
      else t.d_flags.(!d) <- flags
    end
  done;
  (!add_dests, !remove_dests)

let flush_delta t =
  if t.n_queued_links = 0 && t.n_queued_dests = 0 then begin
    t.resend_all <- false;
    empty_delta
  end
  else begin
    let add_links, remove_links = flush_links t in
    let add_dests, remove_dests = flush_dests t in
    t.resend_all <- false;
    { Pgraph.add_links; remove_links; add_dests; remove_dests }
  end
