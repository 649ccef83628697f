(* The result of one run: a human table, an optional full JSON report
   (every number with its unit, what it is normalised by and how many of
   those there were), and the one-line summary printed last. *)

type metric = {
  name : string;
  value : float;
  over : string;  (** what the value is per, or sampled over *)
  n : int;        (** how many of [over] the value was taken from *)
}

type t = {
  workload : string;
  seed : int;
  traced : bool;
  seconds : int;
  op : string;        (** definition of one op *)
  timed_ops : int;    (** ops in the timed phase *)
  counted_ops : int;  (** ops of the fixed first pass behind counts *)
  attempted : int;    (** ops and output checks attempted *)
  failed : int;
  checks : (string * string) list;  (** check name, outcome *)
  metrics : metric list;
}

let metric name ~over ~n value = { name; value; over; n }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let num x =
  if not (Float.is_finite x) then invalid_arg "Report.num: not finite"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let check_failed (_, outcome) = String.starts_with ~prefix:"FAILED" outcome

let correct t = t.failed = 0 && not (List.exists check_failed t.checks)

let find t name = List.find_opt (fun m -> m.name = name) t.metrics

(* The metrics the last line carries: all end-to-end metrics untraced,
   all per-layer metrics traced, in catalog order. *)
let declared t = if t.traced then Catalog.per_layer else Catalog.end_to_end

let missing t =
  List.filter (fun (name, _) -> find t name = None) (declared t) |> List.map fst

let summary_line t =
  let metrics =
    List.map
      (fun (name, unit_) ->
        let m = Option.get (find t name) in
        (name, obj [ ("value", num m.value); ("unit", str unit_) ]))
      (declared t)
  in
  obj
    [ ("correct", string_of_bool (correct t));
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ("metrics", obj metrics) ]

let full_json t =
  let metric m =
    ( m.name,
      obj
        [ ("value", num m.value);
          ("unit", str (Catalog.unit_of m.name));
          ("over", str m.over);
          ("n", string_of_int m.n) ] )
  in
  obj
    [ ("schema", str Catalog.schema);
      ("workload", str t.workload);
      ("seed", string_of_int t.seed);
      ("trace", if t.traced then "1" else "0");
      ("seconds", string_of_int t.seconds);
      ("op", str t.op);
      ("timed_ops", string_of_int t.timed_ops);
      ("counted_ops", string_of_int t.counted_ops);
      ("correct", string_of_bool (correct t));
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ("checks", obj (List.map (fun (k, v) -> (k, str v)) t.checks));
      ("metrics", obj (List.map metric t.metrics)) ]

let print_human t =
  Printf.printf "%s  workload=%s seed=%d trace=%b seconds=%d\n" Catalog.schema
    t.workload t.seed t.traced t.seconds;
  Printf.printf "op: %s\n" t.op;
  Printf.printf "ops: %d timed, %d in the counted first pass\n" t.timed_ops
    t.counted_ops;
  List.iter (fun (k, v) -> Printf.printf "check %-28s %s\n" k v) t.checks;
  Printf.printf "attempted %d, failed %d\n" t.attempted t.failed;
  List.iter
    (fun m ->
      Printf.printf "  %-40s %16.6g %-9s per/over %s (n=%d)\n" m.name m.value
        (Catalog.unit_of m.name) m.over m.n)
    t.metrics
