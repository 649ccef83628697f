type event =
  | Link_state of { link_id : int; a : int; b : int; up : bool }
  | Link_flip of { link_id : int; a : int; b : int; up : bool }
  | Msg_send of { src : int; dst : int; link_id : int; units : int }
  | Msg_deliver of { src : int; dst : int; link_id : int }
  | Msg_loss of { src : int; dst : int; link_id : int; dead_link : bool }
  | Timer_set of { node : int; key : int; fire_at : float }
  | Timer_fire of { node : int; key : int }
  | Batch_begin of { node : int }
  | Batch_end of { node : int }
  | Mark_dirty of { node : int; dest : int }
  | Recompute of { node : int; dirty : int; changed : int }
  | Rib_change of { node : int; dest : int; withdrawn : bool }
  | Rib_out of
      { node : int; peer : int; dest : int; withdraw : bool; path_sig : int }

let dummy = (0.0, Batch_begin { node = -1 })

type t = {
  on : bool;
  buf : (float * event) array;  (* ring; [start .. start+len) mod cap *)
  mutable start : int;
  mutable len : int;
  mutable evicted : int;
  mutable clock : float;
}

let none =
  { on = false; buf = [||]; start = 0; len = 0; evicted = 0; clock = 0.0 }

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { on = true;
    buf = Array.make capacity dummy;
    start = 0;
    len = 0;
    evicted = 0;
    clock = 0.0 }

let[@inline] enabled t = t.on

let[@inline] set_now t now = if t.on then t.clock <- now

let emit t ev =
  if t.on then begin
    let cap = Array.length t.buf in
    if t.len < cap then begin
      t.buf.((t.start + t.len) mod cap) <- (t.clock, ev);
      t.len <- t.len + 1
    end
    else begin
      t.buf.(t.start) <- (t.clock, ev);
      t.start <- (t.start + 1) mod cap;
      t.evicted <- t.evicted + 1
    end
  end

let length t = t.len

let dropped t = t.evicted

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.evicted <- 0

let events t =
  let cap = Array.length t.buf in
  Array.init t.len (fun i -> t.buf.((t.start + i) mod cap))

(* --- schema --- *)

(* A field's value; a [Time] is an absolute time, which the
   timestamp-free text leaves out. *)
type value = Int of int | Bool of bool | Time of float

(* The one definition of the trace format: an event's kind name and its
   fields, keyed as in JSON and the printed text, in wire order. *)
let describe ev =
  let int k v = (k, Int v) and bool k v = (k, Bool v) in
  match ev with
  | Link_state { link_id; a; b; up } ->
    ("link_state", [ int "link" link_id; int "a" a; int "b" b; bool "up" up ])
  | Link_flip { link_id; a; b; up } ->
    ("link_flip", [ int "link" link_id; int "a" a; int "b" b; bool "up" up ])
  | Msg_send { src; dst; link_id; units } ->
    ( "msg_send",
      [ int "src" src; int "dst" dst; int "link" link_id; int "units" units ] )
  | Msg_deliver { src; dst; link_id } ->
    ("msg_deliver", [ int "src" src; int "dst" dst; int "link" link_id ])
  | Msg_loss { src; dst; link_id; dead_link } ->
    ( "msg_loss",
      [ int "src" src; int "dst" dst; int "link" link_id;
        bool "dead_link" dead_link ] )
  | Timer_set { node; key; fire_at } ->
    ("timer_set", [ int "node" node; int "key" key; ("fire_at", Time fire_at) ])
  | Timer_fire { node; key } ->
    ("timer_fire", [ int "node" node; int "key" key ])
  | Batch_begin { node } -> ("batch_begin", [ int "node" node ])
  | Batch_end { node } -> ("batch_end", [ int "node" node ])
  | Mark_dirty { node; dest } ->
    ("mark_dirty", [ int "node" node; int "dest" dest ])
  | Recompute { node; dirty; changed } ->
    ( "recompute",
      [ int "node" node; int "dirty" dirty; int "changed" changed ] )
  | Rib_change { node; dest; withdrawn } ->
    ( "rib_change",
      [ int "node" node; int "dest" dest; bool "withdrawn" withdrawn ] )
  | Rib_out { node; peer; dest; withdraw; path_sig } ->
    ( "rib_out",
      [ int "node" node; int "peer" peer; int "dest" dest;
        bool "withdraw" withdraw; int "sig" path_sig ] )

(* [describe]'s inverse: the event of [proto]'s kind whose field values,
   in [describe]'s order, are [vs]. *)
let rebuild proto vs =
  match (proto, vs) with
  | Link_state _, [ Int link_id; Int a; Int b; Bool up ] ->
    Some (Link_state { link_id; a; b; up })
  | Link_flip _, [ Int link_id; Int a; Int b; Bool up ] ->
    Some (Link_flip { link_id; a; b; up })
  | Msg_send _, [ Int src; Int dst; Int link_id; Int units ] ->
    Some (Msg_send { src; dst; link_id; units })
  | Msg_deliver _, [ Int src; Int dst; Int link_id ] ->
    Some (Msg_deliver { src; dst; link_id })
  | Msg_loss _, [ Int src; Int dst; Int link_id; Bool dead_link ] ->
    Some (Msg_loss { src; dst; link_id; dead_link })
  | Timer_set _, [ Int node; Int key; Time fire_at ] ->
    Some (Timer_set { node; key; fire_at })
  | Timer_fire _, [ Int node; Int key ] -> Some (Timer_fire { node; key })
  | Batch_begin _, [ Int node ] -> Some (Batch_begin { node })
  | Batch_end _, [ Int node ] -> Some (Batch_end { node })
  | Mark_dirty _, [ Int node; Int dest ] -> Some (Mark_dirty { node; dest })
  | Recompute _, [ Int node; Int dirty; Int changed ] ->
    Some (Recompute { node; dirty; changed })
  | Rib_change _, [ Int node; Int dest; Bool withdrawn ] ->
    Some (Rib_change { node; dest; withdrawn })
  | Rib_out _, [ Int node; Int peer; Int dest; Bool withdraw; Int path_sig ] ->
    Some (Rib_out { node; peer; dest; withdraw; path_sig })
  | _ -> None

(* One event per kind, in the digest's count order, each with its
   [describe]d name and key template for the reader. *)
let schema =
  List.map
    (fun proto -> (proto, describe proto))
    [ Link_state { link_id = 0; a = 0; b = 0; up = false };
      Link_flip { link_id = 0; a = 0; b = 0; up = false };
      Msg_send { src = 0; dst = 0; link_id = 0; units = 0 };
      Msg_deliver { src = 0; dst = 0; link_id = 0 };
      Msg_loss { src = 0; dst = 0; link_id = 0; dead_link = false };
      Timer_set { node = 0; key = 0; fire_at = 0.0 };
      Timer_fire { node = 0; key = 0 };
      Batch_begin { node = 0 };
      Batch_end { node = 0 };
      Mark_dirty { node = 0; dest = 0 };
      Recompute { node = 0; dirty = 0; changed = 0 };
      Rib_change { node = 0; dest = 0; withdrawn = false };
      Rib_out
        { node = 0; peer = 0; dest = 0; withdraw = false; path_sig = 0 } ]

let kind ev = fst (describe ev)

let all_kinds = List.map (fun (_, (name, _)) -> name) schema

(* %.6f is exact enough for the engine's millisecond clocks (sums of
   small decimal delays) to round-trip: both the stamped time and
   [fire_at] are printed from the same float, so equality of the parsed
   values mirrors equality of the originals. *)
let json_num f = Printf.sprintf "%.6f" f

let text_of_value = function
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Time f -> json_num f

let value_of_text template s =
  match template with
  | Int _ -> Option.map (fun i -> Int i) (int_of_string_opt s)
  | Bool _ -> Option.map (fun b -> Bool b) (bool_of_string_opt s)
  | Time _ -> Option.map (fun f -> Time f) (float_of_string_opt s)

(* --- rendering --- *)

(* Timestamp-free field text, shared by the pretty-printer (which
   prepends the timestamp) and the digest (which must be
   timestamp-tolerant, so absolute times such as [fire_at] are left
   out too). *)
let fields ev =
  List.filter_map
    (function _, Time _ -> None | k, v -> Some (k ^ "=" ^ text_of_value v))
    (snd (describe ev))
  |> String.concat " "

let pp_event fmt (at, ev) =
  Format.fprintf fmt "[%10.3f] %-11s %s" at (kind ev) (fields ev)

(* --- JSON Lines --- *)

let event_to_json (at, ev) =
  let name, fs = describe ev in
  let b = Buffer.create 96 in
  Printf.bprintf b "{\"t\":%s,\"ev\":%S" (json_num at) name;
  List.iter (fun (k, v) -> Printf.bprintf b ",%S:%s" k (text_of_value v)) fs;
  Buffer.add_char b '}';
  Buffer.contents b

(* Minimal parser for the flat objects above: keys and the "ev" value
   are the only strings, values contain no nested structure, strings no
   escapes — so splitting on commas outside quotes is sound. *)
let event_of_json line =
  let line = String.trim line in
  let n = String.length line in
  if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then None
  else begin
    let unquote s =
      let s = String.trim s in
      let l = String.length s in
      if l >= 2 && s.[0] = '"' && s.[l - 1] = '"' then String.sub s 1 (l - 2)
      else s
    in
    let kv = Hashtbl.create 8 in
    let ok =
      List.for_all
        (fun part ->
          match String.index_opt part ':' with
          | None -> false
          | Some i ->
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            Hashtbl.replace kv (unquote (String.sub part 0 i)) (unquote v);
            true)
        (String.split_on_char ',' (String.sub line 1 (n - 2)))
    in
    let ( let* ) = Option.bind in
    let find k parse = Option.bind (Hashtbl.find_opt kv k) parse in
    (* The kind's keys, each read as its template value's type. *)
    let rec read = function
      | [] -> Some []
      | (k, template) :: rest ->
        let* v = find k (value_of_text template) in
        let* vs = read rest in
        Some (v :: vs)
    in
    let* at = if ok then find "t" float_of_string_opt else None in
    let* name = Hashtbl.find_opt kv "ev" in
    let* proto, (_, template) =
      List.find_opt (fun (_, (k, _)) -> k = name) schema
    in
    let* vs = read template in
    let* ev = rebuild proto vs in
    Some (at, ev)
  end

let write_jsonl oc t =
  Array.iter (fun e -> Printf.fprintf oc "%s\n" (event_to_json e)) (events t)

(* --- digest --- *)

let digest_events ?(dropped = 0) evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "trace-digest v1\n";
  Buffer.add_string buf
    (Printf.sprintf "events=%d dropped=%d\n" (Array.length evs) dropped);
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun (_, ev) ->
      let k = kind ev in
      Hashtbl.replace counts k
        (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    evs;
  List.iter
    (fun k ->
      match Hashtbl.find_opt counts k with
      | Some c -> Buffer.add_string buf (Printf.sprintf "count %s=%d\n" k c)
      | None -> ())
    all_kinds;
  Buffer.add_string buf "sequence:\n";
  let flush_run line n =
    if n = 1 then Buffer.add_string buf (Printf.sprintf "  %s\n" line)
    else Buffer.add_string buf (Printf.sprintf "  %dx %s\n" n line)
  in
  let pending = ref None in
  Array.iter
    (fun (_, ev) ->
      let line = Printf.sprintf "%s %s" (kind ev) (fields ev) in
      match !pending with
      | Some (prev, n) when prev = line -> pending := Some (prev, n + 1)
      | Some (prev, n) ->
        flush_run prev n;
        pending := Some (line, 1)
      | None -> pending := Some (line, 1))
    evs;
  (match !pending with Some (line, n) -> flush_run line n | None -> ());
  Buffer.contents buf

let digest t = digest_events ~dropped:t.evicted (events t)
