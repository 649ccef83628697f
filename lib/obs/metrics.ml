type counter = { c_name : string; mutable count : int }

type histogram = {
  h_name : string;
  bounds : float array;   (* strictly increasing upper bounds *)
  buckets : int array;    (* length bounds + 1; last = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
}

type instrument =
  | Counter of counter
  | Histogram of histogram

type t = (string, instrument) Hashtbl.t

let create () : t = Hashtbl.create 16

let kind_name = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"

let conflict name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, wanted a %s"
       name (kind_name got) want)

let counter t name =
  match Hashtbl.find_opt t name with
  | Some (Counter c) -> c
  | Some other -> conflict name "counter" other
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace t name (Counter c);
    c

let incr c = c.count <- c.count + 1

let add c n = c.count <- c.count + n

let value c = c.count

let default_buckets =
  [| 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0 |]

let validate_bounds name bounds =
  if Array.length bounds = 0 then
    invalid_arg (Printf.sprintf "Metrics.histogram %S: empty bounds" name);
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg
        (Printf.sprintf "Metrics.histogram %S: bounds not increasing" name)
  done

let histogram t ?(buckets = default_buckets) name =
  match Hashtbl.find_opt t name with
  | Some (Histogram h) ->
    if h.bounds <> buckets then
      invalid_arg
        (Printf.sprintf "Metrics.histogram %S: conflicting bucket bounds"
           name);
    h
  | Some other -> conflict name "histogram" other
  | None ->
    validate_bounds name buckets;
    let h =
      { h_name = name;
        bounds = Array.copy buckets;
        buckets = Array.make (Array.length buckets + 1) 0;
        h_count = 0;
        h_sum = 0.0 }
    in
    Hashtbl.replace t name (Histogram h);
    h

let bucket_of h v =
  let n = Array.length h.bounds in
  let rec go i = if i >= n then n else if v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_of h v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

let merge_into ~(dst : t) (src : t) =
  Hashtbl.iter
    (fun name inst ->
      match inst with
      | Counter c -> add (counter dst name) c.count
      | Histogram h ->
        let d = histogram dst ~buckets:h.bounds name in
        Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets;
        d.h_count <- d.h_count + h.h_count;
        d.h_sum <- d.h_sum +. h.h_sum)
    src

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let sorted_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t []
  |> List.sort compare

(* %.17g round-trips any float, so equal sums render equally and only
   equal sums render equally. *)
let num f = Printf.sprintf "%.17g" f

let render t =
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      match Hashtbl.find t name with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name c.count)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "%s count=%d sum=%s buckets=[%s]\n" name h.h_count
             (num h.h_sum)
             (String.concat ";"
                (Array.to_list (Array.map string_of_int h.buckets)))))
    (sorted_names t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 256 in
  let section keep fmt =
    let entries =
      List.filter_map
        (fun name ->
          match keep (Hashtbl.find t name) with
          | Some body -> Some (Printf.sprintf "%S:%s" name body)
          | None -> None)
        (sorted_names t)
    in
    Buffer.add_string buf (Printf.sprintf "%S:{%s}" fmt (String.concat "," entries))
  in
  Buffer.add_char buf '{';
  section
    (function Counter c -> Some (string_of_int c.count) | _ -> None)
    "counters";
  Buffer.add_char buf ',';
  section
    (function
      | Histogram h ->
        Some
          (Printf.sprintf "{\"bounds\":[%s],\"buckets\":[%s],\"count\":%d,\"sum\":%s}"
             (String.concat "," (Array.to_list (Array.map num h.bounds)))
             (String.concat ","
                (Array.to_list (Array.map string_of_int h.buckets)))
             h.h_count (num h.h_sum))
      | _ -> None)
    "histograms";
  Buffer.add_char buf '}';
  Buffer.contents buf

let equal a b = render a = render b
