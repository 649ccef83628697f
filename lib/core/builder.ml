(* Two P-graphs rooted at the exporter:

   - [view], the current view: the links the installed paths use, each
     link's counter its §4.3 use count. It carries no Permission List
     and no mark.
   - [wire], the receiver's copy: every link, Permission List and mark
     the flushes announced. A flush compares the queued links and
     destinations with it and writes what it announces into it.

   Beside them, indexed by node id: each destination's installed path
   (the root's own mark is its one-node path) and queued byte, and one
   bit row per child ([enters]) of the destinations whose installed path
   enters it. A link's Permission List is read back off its child's row:
   the destinations whose path enters the child from the link's parent,
   each with the child's next hop on it. So [set_path] keeps no list:
   the flush fills a scratch for each queued link into a multi-homed
   child, compares it with the list on the wire and allocates a list
   only when it changed.

   A link is queued as its packed key when it enters or leaves the view,
   or when its use count changes while its child is multi-homed; every
   in-link of a child is queued when the child's in-degree crosses
   between 1 and 2. *)

type t = {
  d_path : Path.t array; (* [] when no path is installed *)
  d_queued : Bytes.t;
  mutable n_queued_dests : int;
  view : Pgraph.t;
  wire : Pgraph.t;
  enters : Bit_rows.t; (* child -> destinations whose path enters it *)
  plist_scratch : Permission_list.scratch;
  mutable queued_links : int array;
  mutable n_queued_links : int;
  (* When set, the next flush re-announces current links and marks even
     where they equal the wire state — receivers may hold damaged copies
     (see invalidate_wire). Cleared by the flush. *)
  mutable resend_all : bool;
}

let create ~root ~nodes =
  { d_path = Array.make nodes [];
    d_queued = Bytes.make nodes '\000';
    n_queued_dests = 0;
    view = Pgraph.create ~nodes ~root;
    wire = Pgraph.create ~nodes ~root;
    enters = Bit_rows.create nodes;
    plist_scratch = Permission_list.Scratch.create ();
    queued_links = Array.make 16 0;
    n_queued_links = 0;
    resend_all = false }

let root t = Pgraph.root t.view

let nodes t = Array.length t.d_path

let queue_dest t d =
  if Bytes.get t.d_queued d = '\000' then begin
    Bytes.set t.d_queued d '\001';
    t.n_queued_dests <- t.n_queued_dests + 1
  end

(* A repeat of the last queued key is dropped here; the flush drops the
   others after sorting. *)
let queue_link t ~parent ~child =
  let key = Pgraph.pack ~parent ~child and n = t.n_queued_links in
  if n = 0 || t.queued_links.(n - 1) <> key then begin
    if n = Array.length t.queued_links then
      t.queued_links <- Array.append t.queued_links t.queued_links;
    t.queued_links.(n) <- key;
    t.n_queued_links <- n + 1
  end

let queue_in_links t child =
  Pgraph.iter_parents t.view child (fun parent -> queue_link t ~parent ~child)

(* A child is multi-homed when two or more of its in-links are in the
   current view; exactly then its in-links carry Permission Lists
   (paper §4.1/§4.3). *)
let multi_homed t child = Pgraph.in_degree t.view child > 1

(* Fill the scratch with a link's Permission List: every installed path
   that enters the child from the link's parent, as (destination, next
   hop of the child). *)
let fill_plist t ~parent ~child =
  let sc = t.plist_scratch in
  Permission_list.Scratch.clear sc;
  let d = ref (Bit_rows.next t.enters child 0) in
  while !d >= 0 do
    let h = Pgraph.path_step t.d_path.(!d) ~node:child in
    if Pgraph.step_parent h = parent then
      Permission_list.Scratch.push sc ~dest:!d ~next:(Pgraph.step_next h);
    d := Bit_rows.next t.enters child (!d + 1)
  done

(* One more installed path, toward [dest], uses [parent -> child]. A
   second in-link makes the child multi-homed: its first one starts
   announcing a Permission List. *)
let add_use t ~dest ~parent ~child =
  if Pgraph.add_use t.view ~parent ~child = 1 then begin
    if Pgraph.in_degree t.view child = 2 then queue_in_links t child
    else queue_link t ~parent ~child
  end
  else if multi_homed t child then queue_link t ~parent ~child;
  Bit_rows.add t.enters child dest

(* One installed path fewer, toward [dest], uses [parent -> child]. A
   child left with one in-link is no longer multi-homed, so that link
   goes back to announcing no Permission List. *)
let drop_use t ~dest ~parent ~child =
  if Pgraph.drop_use t.view ~parent ~child = 0 then begin
    queue_link t ~parent ~child;
    if Pgraph.in_degree t.view child = 1 then queue_in_links t child
  end
  else if multi_homed t child then queue_link t ~parent ~child;
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

let path_of t ~dest = if in_range t dest then t.d_path.(dest) else []

let dests t =
  let acc = ref [] in
  for d = nodes t - 1 downto 0 do
    if t.d_path.(d) <> [] then acc := d :: !acc
  done;
  !acc

let rec all_in_range t = function
  | [] -> true
  | v :: rest -> in_range t v && all_in_range t rest

let set_path t ~dest p =
  if not (in_range t dest) then invalid_arg "Builder.set_path: node id out of range";
  (match p with
  | [] -> ()
  | first :: _ ->
    if first <> root t then
      invalid_arg "Builder.set_path: path does not start at root";
    if not (all_in_range t p) then
      invalid_arg "Builder.set_path: node id out of range";
    if not (Path.is_loop_free p) then
      invalid_arg "Builder.set_path: path has a loop";
    if Path.destination p <> dest then
      invalid_arg "Builder.set_path: path destination mismatch");
  if not (Path.equal t.d_path.(dest) p) then begin
    replace_path t ~dest p;
    queue_dest t dest
  end

let counter t ~parent ~child =
  match Pgraph.link_data t.view ~parent ~child with
  | Some { Pgraph.counter; _ } -> counter
  | None -> 0

(* The links on the wire but out of the view are queued already: each
   left the view since the last flush. *)
let invalidate_wire t =
  t.resend_all <- true;
  for v = 0 to nodes t - 1 do
    queue_in_links t v;
    if t.d_path.(v) <> [] then queue_dest t v
  done

let empty_delta =
  { Pgraph.add_links = []; remove_links = []; add_dests = []; remove_dests = [] }

(* Put [parent -> child] on the wire with list [pl]. A link enters the
   receiver's copy bare and counted once, by the announcement that puts
   it there. *)
let announce t ~on_wire ~parent ~child pl acc =
  if not on_wire then ignore (Pgraph.add_use t.wire ~parent ~child);
  if on_wire || not (Permission_list.is_empty pl) then
    Pgraph.set_plist t.wire ~parent ~child pl;
  (parent, child, pl) :: acc

(* Compare each queued link with the wire, in descending key order so
   the consed lists come out ascending. *)
let flush_links t =
  let queued = Array.sub t.queued_links 0 t.n_queued_links in
  t.n_queued_links <- 0;
  Array.stable_sort (fun a b -> Int.compare b a) queued;
  let add_links = ref [] and remove_links = ref [] in
  for i = 0 to Array.length queued - 1 do
    let key = queued.(i) in
    if i = 0 || queued.(i - 1) <> key then begin
      let parent = Pgraph.key_parent key and child = Pgraph.key_child key in
      let wire_pl = Pgraph.plist t.wire ~parent ~child in
      (* A list on the wire answers without a second chain walk. *)
      let on_wire =
        (not (Permission_list.is_empty wire_pl))
        || Pgraph.mem_link t.wire ~parent ~child
      in
      let deg = Pgraph.in_degree t.view child in
      if deg = 0 || not (Pgraph.mem_link t.view ~parent ~child) then begin
        if on_wire then begin
          Pgraph.remove_link t.wire ~parent ~child;
          remove_links := (parent, child) :: !remove_links
        end
      end
      else if deg = 1 then begin
        if
          (not on_wire)
          || (not (Permission_list.is_empty wire_pl))
          || t.resend_all
        then
          add_links :=
            announce t ~on_wire ~parent ~child Permission_list.empty !add_links
      end
      else begin
        (* The filled list is never empty: the link's own path is in it. *)
        fill_plist t ~parent ~child;
        let same = Permission_list.Scratch.equal t.plist_scratch wire_pl in
        if (not same) || t.resend_all then begin
          let pl =
            if same then wire_pl
            else Permission_list.Scratch.freeze t.plist_scratch
          in
          add_links := announce t ~on_wire ~parent ~child pl !add_links
        end
      end
    end
  done;
  (!add_links, !remove_links)

(* Compare each queued destination with the wire, scanning down (so the
   consed lists come out ascending) until the last queued one. *)
let flush_dests t =
  let add_dests = ref [] and remove_dests = ref [] in
  let d = ref (nodes t) in
  while t.n_queued_dests > 0 do
    decr d;
    if Bytes.get t.d_queued !d <> '\000' then begin
      Bytes.set t.d_queued !d '\000';
      t.n_queued_dests <- t.n_queued_dests - 1;
      let now = t.d_path.(!d) <> [] and before = Pgraph.is_dest t.wire !d in
      if now && ((not before) || t.resend_all) then begin
        Pgraph.mark_dest t.wire !d;
        add_dests := !d :: !add_dests
      end
      else if before && not now then begin
        Pgraph.unmark_dest t.wire !d;
        remove_dests := !d :: !remove_dests
      end
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
