open Gao_rexford

exception Diverged

(* Selected paths live in an arena of immutable parent-pointer cells
   instead of consed [Path.t] lists: cell [c] is one path whose head is
   [c_node.(c)] and whose rest is the cell [c_tail.(c)] ([-1] ends at
   the destination). [c_len] caches the hop count ([Path.length]) and
   [c_cls] the route class of the whole path — computed once at intern
   time from the adopted candidate, which equals [Path_class.class_of]
   of the materialized path by induction (business relationships are
   static contracts, so the class of [y :: p] is [class_of_learned] of
   the tail's class, and the tail cell's class is correct by the same
   argument). Cells are never mutated, so a node's stored selection is
   a snapshot of its neighbor's path at adoption time — exactly the
   Gauss–Seidel semantics of the old list representation.

   The arena and the [sel] array are workspace state reused across
   destinations: one [Array.fill] of [sel] plus an arena rewind replaces
   the old per-destination [Array.make n None] / per-candidate list
   consing. *)
type workspace = {
  mutable cap : int;
  mutable sel : int array;    (* node -> selected cell index, -1 = none *)
  mutable c_node : int array;
  mutable c_tail : int array;
  mutable c_len : int array;
  mutable c_cls : route_class array;
  mutable c_used : int;
}

let create_workspace () =
  { cap = 0;
    sel = [||];
    c_node = [||];
    c_tail = [||];
    c_len = [||];
    c_cls = [||];
    c_used = 0 }

type routes = {
  r_dest : int;
  r_n : int;
  r_ws : workspace;
}

let dest t = t.r_dest

let intern ws ~node ~tail ~len ~cls =
  let i = ws.c_used in
  if i = Array.length ws.c_node then begin
    let cap = max 64 (2 * i) in
    let grow a = let b = Array.make cap 0 in Array.blit a 0 b 0 i; b in
    ws.c_node <- grow ws.c_node;
    ws.c_tail <- grow ws.c_tail;
    ws.c_len <- grow ws.c_len;
    let b = Array.make cap Origin in
    Array.blit ws.c_cls 0 b 0 i;
    ws.c_cls <- b
  end;
  ws.c_node.(i) <- node;
  ws.c_tail.(i) <- tail;
  ws.c_len.(i) <- len;
  ws.c_cls.(i) <- cls;
  ws.c_used <- i + 1;
  i

let chain_contains ws c v =
  let rec go c = c >= 0 && (ws.c_node.(c) = v || go ws.c_tail.(c)) in
  go c

(* Structural equality of two chains (same node sequence). Cells are not
   hash-consed, so index inequality does not imply path inequality. *)
let chain_equal ws c1 c2 =
  let rec go c1 c2 =
    c1 = c2
    || (c1 >= 0 && c2 >= 0
        && ws.c_node.(c1) = ws.c_node.(c2)
        && go ws.c_tail.(c1) ws.c_tail.(c2))
  in
  go c1 c2

let path_of_cell ws c =
  let rec go c = if c < 0 then [] else ws.c_node.(c) :: go ws.c_tail.(c) in
  go c

(* The policy-free solve's policy: plain Gao–Rexford. It never leaves
   this module, so no override is ever set on it, and evaluating it
   writes nothing, so every domain may read it. *)
let gao_rexford = Policy.default ()

(* One best-response step for node [y]: the most preferred of the
   neighbors' current selections, each crossing its link through
   [Policy.extend] at the class it was selected with. The policies read
   a path only when configured, so only then is the neighbor's path
   materialized. *)
let best_response ~policy best ws topo y d =
  Gao_rexford.start best ~chooser:y ~dest:d;
  Topology.iter_neighbors topo y (fun x role_of_x _ ->
      let cx = ws.sel.(x) in
      if cx >= 0 && not (chain_contains ws cx y) then
        ignore
          (Policy.extend policy best ~node:y ~peer:x ~role:role_of_x ~dest:d
             ~neighbor_class:ws.c_cls.(cx) ~len:ws.c_len.(cx)
             ~tail:
               (if Policy.is_default policy then [] else path_of_cell ws cx)));
  Gao_rexford.leader best

let to_dest_with ws ?(discipline = Standard) ?policy ?max_rounds topo d =
  let policy = Option.value (Policy.configured policy) ~default:gao_rexford in
  let best = Gao_rexford.best discipline in
  let n = Topology.num_nodes topo in
  if d < 0 || d >= n then invalid_arg "Stable.to_dest: destination out of range";
  if ws.cap < n then begin
    ws.sel <- Array.make n (-1);
    ws.cap <- n
  end
  else Array.fill ws.sel 0 n (-1);
  ws.c_used <- 0;
  ws.sel.(d) <- intern ws ~node:d ~tail:(-1) ~len:0 ~cls:Origin;
  let max_rounds =
    match max_rounds with Some r -> r | None -> (8 * n) + 16
  in
  (* Gauss–Seidel sweeps in node order until a full sweep changes
     nothing. (A FIFO worklist was measured slower here: the sweep's
     in-order propagation settles most nodes in one or two visits.) *)
  let rec iterate round =
    if round > max_rounds then raise Diverged;
    let changed = ref false in
    for y = 0 to n - 1 do
      if y <> d then begin
        let cur = ws.sel.(y) in
        match best_response ~policy best ws topo y d with
        | None ->
          if cur >= 0 then begin
            ws.sel.(y) <- -1;
            changed := true
          end
        | Some c ->
          (* The winning neighbor's cell, unchanged since the offer. *)
          let cx = ws.sel.(c.next_hop) in
          if not (cur >= 0 && chain_equal ws ws.c_tail.(cur) cx) then begin
            ws.sel.(y) <-
              intern ws ~node:y ~tail:cx ~len:(ws.c_len.(cx) + 1) ~cls:c.cls;
            changed := true
          end
      end
    done;
    if !changed then iterate (round + 1)
  in
  iterate 0;
  { r_dest = d; r_n = n; r_ws = ws }

let to_dest ?discipline ?policy ?max_rounds topo d =
  to_dest_with (create_workspace ()) ?discipline ?policy ?max_rounds topo d

let reachable t v = t.r_ws.sel.(v) >= 0

let next_hop t v =
  if v = t.r_dest then None
  else
    let c = t.r_ws.sel.(v) in
    if c < 0 then None
    else
      let tl = t.r_ws.c_tail.(c) in
      if tl < 0 then None else Some t.r_ws.c_node.(tl)

let class_of t v =
  let c = t.r_ws.sel.(v) in
  if c < 0 then None else Some t.r_ws.c_cls.(c)

let path t v =
  let c = t.r_ws.sel.(v) in
  if c < 0 then None else Some (path_of_cell t.r_ws c)

let path_len t v =
  let c = t.r_ws.sel.(v) in
  if c < 0 then -1 else t.r_ws.c_len.(c)

let iter_links t v f =
  let ws = t.r_ws in
  let c = ws.sel.(v) in
  if c >= 0 then begin
    let rec go c =
      let tl = ws.c_tail.(c) in
      if tl >= 0 then begin
        let nx = ws.c_tail.(tl) in
        f ~parent:ws.c_node.(c) ~child:ws.c_node.(tl)
          ~next:(if nx < 0 then -1 else ws.c_node.(nx));
        go tl
      end
    in
    go c
  end

let iter_reachable t f =
  for v = 0 to t.r_n - 1 do
    if reachable t v then f v
  done
