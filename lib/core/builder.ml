(* Flat layout. Two slot arenas, each a set of parallel arrays reached
   through a [Flat_tbl] index and recycled through a free list, plus an
   occurrence index:

   - destination slots ([dest_slot]): the installed path, the head of
     its occurrence chain, and flag bits (forced, marked on the wire,
     queued for the next flush);
   - link slots ([link_slot], under [Pgraph.pack] keys): the §4.3 use
     counter, the child's chain of current in-links and the state last
     put on the wire (bare, or the Permission List announced);
   - occurrences ([occ], keyed by link slot): one entry per (installed
     path, link on it) carrying the destination and the child's next hop
     on that path. A link's chain is exactly its Permission List's
     pairs, so [set_path] keeps no list: the flush fills a scratch from
     the chain of each queued link into a multi-homed child, compares it
     with the list on the wire and allocates a list only when it
     changed.

   A slot lives while it is in the current graph or on the wire (or
   queued to leave it); the flush that finds it in neither frees it. *)

let nil = Occ_index.nil

(* Destination flag bits. *)
let forced_bit = 1
let wire_bit = 2
let queued_bit = 4

(* Link flag bits. *)
let queued_link = 1

(* Link wire states. *)
let wire_none = 0
let wire_bare = 1
let wire_plist = 2

type t = {
  root_node : int;
  dest_slot : Flat_tbl.t; (* dest -> slot *)
  mutable d_dest : int array;
  mutable d_path : Path.t array; (* [] when no path is installed *)
  mutable d_occ : int array; (* head of the path's occurrence chain *)
  mutable d_flags : int array; (* the free list runs through [d_occ] *)
  mutable d_hwm : int;
  mutable d_free : int;
  link_slot : Flat_tbl.t; (* packed link key -> slot *)
  mutable l_key : int array;
  mutable l_count : int array;
  mutable l_next_in : int array; (* next current in-link of the child *)
  mutable l_wire : int array;
  mutable l_wire_plist : Permission_list.t array;
  mutable l_flags : int array;
  mutable l_hwm : int;
  mutable l_free : int; (* runs through [l_next_in] *)
  (* child -> first current in-link slot, [nil] once the child has none
     (bound rather than removed: no tombstone churn) *)
  in_head : Flat_tbl.t;
  occ : Occ_index.t;
  plist_scratch : Permission_list.scratch;
  (* Slots touched since the last flush. *)
  mutable queued_links : int array;
  mutable n_queued_links : int;
  mutable queued_dests : int array;
  mutable n_queued_dests : int;
  (* When set, the next flush re-announces current links and marks even
     where they equal the wire state — receivers may hold damaged copies
     (see invalidate_wire). Cleared by the flush. *)
  mutable resend_all : bool;
}

let initial_cap = 16

let create ~root =
  { root_node = root;
    dest_slot = Flat_tbl.create ();
    d_dest = Array.make initial_cap nil;
    d_path = Array.make initial_cap [];
    d_occ = Array.make initial_cap nil;
    d_flags = Array.make initial_cap 0;
    d_hwm = 0;
    d_free = nil;
    link_slot = Flat_tbl.create ();
    l_key = Array.make initial_cap nil;
    l_count = Array.make initial_cap 0;
    l_next_in = Array.make initial_cap nil;
    l_wire = Array.make initial_cap wire_none;
    l_wire_plist = Array.make initial_cap Permission_list.empty;
    l_flags = Array.make initial_cap 0;
    l_hwm = 0;
    l_free = nil;
    in_head = Flat_tbl.create ();
    occ = Occ_index.create ();
    plist_scratch = Permission_list.Scratch.create ();
    queued_links = Array.make initial_cap nil;
    n_queued_links = 0;
    queued_dests = Array.make initial_cap nil;
    n_queued_dests = 0;
    resend_all = false }

let root t = t.root_node

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* [a] with [x] stored at index [n], grown when full. *)
let pushed a n x =
  let a = if n = Array.length a then grow a nil else a in
  a.(n) <- x;
  a

(* --- destination slots --- *)

let dest_alloc t dest =
  let s =
    if t.d_free <> nil then begin
      let s = t.d_free in
      t.d_free <- t.d_occ.(s);
      s
    end
    else begin
      if t.d_hwm = Array.length t.d_dest then begin
        t.d_dest <- grow t.d_dest nil;
        t.d_path <- grow t.d_path [];
        t.d_occ <- grow t.d_occ nil;
        t.d_flags <- grow t.d_flags 0
      end;
      let s = t.d_hwm in
      t.d_hwm <- s + 1;
      s
    end
  in
  t.d_dest.(s) <- dest;
  t.d_path.(s) <- [];
  t.d_occ.(s) <- nil;
  t.d_flags.(s) <- 0;
  Flat_tbl.set t.dest_slot dest s;
  s

let dest_free t s =
  Flat_tbl.remove t.dest_slot t.d_dest.(s);
  t.d_dest.(s) <- nil;
  t.d_occ.(s) <- t.d_free;
  t.d_free <- s

let queue_dest t s =
  let f = t.d_flags.(s) in
  if f land queued_bit = 0 then begin
    t.d_flags.(s) <- f lor queued_bit;
    t.queued_dests <- pushed t.queued_dests t.n_queued_dests s;
    t.n_queued_dests <- t.n_queued_dests + 1
  end

let marked t s = t.d_path.(s) <> [] || t.d_flags.(s) land forced_bit <> 0

(* --- link slots --- *)

let link_alloc t key =
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
  t.l_key.(s) <- key;
  t.l_count.(s) <- 0;
  t.l_next_in.(s) <- nil;
  t.l_wire.(s) <- wire_none;
  t.l_wire_plist.(s) <- Permission_list.empty;
  t.l_flags.(s) <- 0;
  Flat_tbl.set t.link_slot key s;
  s

let link_free t s =
  Flat_tbl.remove t.link_slot t.l_key.(s);
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
    t.queued_links <- pushed t.queued_links t.n_queued_links s;
    t.n_queued_links <- t.n_queued_links + 1
  end

(* A child is multi-homed when its in-link chain holds two or more
   current links; exactly then its in-links carry Permission Lists
   (paper §4.1/§4.3). *)
let multi_homed t child =
  let head = Flat_tbl.find_default t.in_head child ~default:nil in
  head <> nil && t.l_next_in.(head) <> nil

(* Fill the scratch with a link's Permission List: every installed
   path through it, as (destination, next hop of the child). *)
let fill_plist t l =
  let sc = t.plist_scratch in
  Permission_list.Scratch.clear sc;
  let e = ref (Occ_index.first t.occ l) in
  while !e <> nil do
    Permission_list.Scratch.push sc ~dest:(Occ_index.value t.occ !e)
      ~next:(Occ_index.aux t.occ !e);
    e := Occ_index.next t.occ !e
  done

(* One more installed path uses [parent -> child]; [next] is the
   child's next hop on it ([nil] at the destination). Returns the new
   head of the path's occurrence chain. *)
let add_occurrence t ~dest ~parent ~child ~next ~owner =
  let key = Pgraph.pack ~parent ~child in
  let l =
    match Flat_tbl.find_default t.link_slot key ~default:nil with
    | -1 -> link_alloc t key
    | l -> l
  in
  if t.l_count.(l) = 0 then begin
    (* The link enters the graph. A second in-link makes the child
       multi-homed: the first one starts announcing its Permission
       List. *)
    let head = Flat_tbl.find_default t.in_head child ~default:nil in
    t.l_next_in.(l) <- head;
    Flat_tbl.set t.in_head child l;
    if head <> nil && t.l_next_in.(head) = nil then queue_link t head
  end;
  t.l_count.(l) <- t.l_count.(l) + 1;
  queue_link t l;
  Occ_index.add t.occ ~key:l ~value:dest ~aux:next ~owner

(* Unlink [l] from its child's in-link chain (as short as the child's
   in-degree). *)
let unchain_in t child l =
  let head = Flat_tbl.find_default t.in_head child ~default:nil in
  if head = l then Flat_tbl.set t.in_head child t.l_next_in.(l)
  else begin
    let p = ref head in
    while t.l_next_in.(!p) <> l do
      p := t.l_next_in.(!p)
    done;
    t.l_next_in.(!p) <- t.l_next_in.(l)
  end;
  t.l_next_in.(l) <- nil

(* Drop one occurrence of a path; returns the next entry of the path's
   chain. *)
let remove_occurrence t e =
  let l = Occ_index.key t.occ e in
  t.l_count.(l) <- t.l_count.(l) - 1;
  queue_link t l;
  if t.l_count.(l) = 0 then begin
    (* The link leaves the graph; a child left with one in-link is no
       longer multi-homed, so that link goes back to announcing no
       Permission List. *)
    let child = Pgraph.key_child t.l_key.(l) in
    unchain_in t child l;
    let head = Flat_tbl.find_default t.in_head child ~default:nil in
    if head <> nil && t.l_next_in.(head) = nil then queue_link t head
  end;
  Occ_index.remove t.occ e

(* Add the hops of path [p] (each link with the child's next hop) onto
   the owner chain [owner]; returns the chain's new head. *)
let rec add_hops t ~dest owner = function
  | parent :: (child :: rest as tail) ->
    let next = match rest with n :: _ -> n | [] -> nil in
    add_hops t ~dest (add_occurrence t ~dest ~parent ~child ~next ~owner) tail
  | [] | [ _ ] -> owner

(* Install [p] ([] for none) as [dest]'s path in slot [s]. *)
let replace_path t s ~dest p =
  let e = ref t.d_occ.(s) in
  while !e <> nil do
    e := remove_occurrence t !e
  done;
  t.d_occ.(s) <- add_hops t ~dest nil p;
  t.d_path.(s) <- p

let path_of t ~dest =
  match Flat_tbl.find_default t.dest_slot dest ~default:nil with
  | -1 -> None
  | s -> ( match t.d_path.(s) with [] -> None | p -> Some p)

let live_dests t =
  let acc = ref [] in
  for s = 0 to t.d_hwm - 1 do
    if t.d_dest.(s) <> nil && marked t s then acc := t.d_dest.(s) :: !acc
  done;
  !acc

let dests t = List.sort Int.compare (live_dests t)

let set_path t ~dest path =
  (match path with
  | None -> ()
  | Some p ->
    (match p with
    | [] | [ _ ] -> invalid_arg "Builder.set_path: path too short"
    | first :: _ when first <> t.root_node ->
      invalid_arg "Builder.set_path: path does not start at root"
    | _ -> ());
    if not (Path.is_loop_free p) then
      invalid_arg "Builder.set_path: path has a loop";
    if Path.destination p <> dest then
      invalid_arg "Builder.set_path: path destination mismatch");
  let s = Flat_tbl.find_default t.dest_slot dest ~default:nil in
  let old_path = if s = nil then [] else t.d_path.(s) in
  match path with
  | None ->
    if old_path <> [] then begin
      replace_path t s ~dest [];
      queue_dest t s
    end
  | Some p ->
    if not (Path.equal old_path p) then begin
      let s = if s = nil then dest_alloc t dest else s in
      replace_path t s ~dest p;
      queue_dest t s
    end

let force_dest t d =
  let s =
    match Flat_tbl.find_default t.dest_slot d ~default:nil with
    | -1 -> dest_alloc t d
    | s -> s
  in
  t.d_flags.(s) <- t.d_flags.(s) lor forced_bit;
  queue_dest t s

let counter t ~parent ~child =
  if parent < 0 || parent > Pgraph.max_node || child < 0 || child > Pgraph.max_node
  then 0
  else
    match Flat_tbl.find_default t.link_slot (Pgraph.pack ~parent ~child) ~default:nil with
    | -1 -> 0
    | l -> t.l_count.(l)

let invalidate_wire t =
  t.resend_all <- true;
  for l = 0 to t.l_hwm - 1 do
    if t.l_key.(l) <> nil then queue_link t l
  done;
  for s = 0 to t.d_hwm - 1 do
    if t.d_dest.(s) <> nil then queue_dest t s
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

let flush_dests t =
  let queued = Array.sub t.queued_dests 0 t.n_queued_dests in
  t.n_queued_dests <- 0;
  Array.stable_sort (fun a b -> Int.compare t.d_dest.(b) t.d_dest.(a)) queued;
  let add_dests = ref [] and remove_dests = ref [] in
  Array.iter
    (fun s ->
      let flags = t.d_flags.(s) land lnot queued_bit in
      let d = t.d_dest.(s) in
      let now = marked t s and before = flags land wire_bit <> 0 in
      if now && ((not before) || t.resend_all) then begin
        t.d_flags.(s) <- flags lor wire_bit;
        add_dests := d :: !add_dests
      end
      else if before && not now then begin
        t.d_flags.(s) <- flags land lnot wire_bit;
        remove_dests := d :: !remove_dests
      end
      else t.d_flags.(s) <- flags;
      if not now && t.d_flags.(s) = 0 then dest_free t s)
    queued;
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

let snapshot t =
  let g = Pgraph.create ~root:t.root_node in
  for l = 0 to t.l_hwm - 1 do
    if t.l_key.(l) <> nil && t.l_count.(l) > 0 then begin
      let key = t.l_key.(l) in
      let parent = Pgraph.key_parent key and child = Pgraph.key_child key in
      let plist =
        if multi_homed t child then begin
          fill_plist t l;
          Some (Permission_list.Scratch.freeze t.plist_scratch)
        end
        else None
      in
      Pgraph.add_link g ~parent ~child
        ~data:{ Pgraph.counter = t.l_count.(l); plist }
    end
  done;
  List.iter (Pgraph.mark_dest g) (live_dests t);
  g
