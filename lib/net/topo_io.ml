let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Topology.num_nodes t));
  Topology.iter_links t (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "link %d %d %s %.6f\n" l.Topology.a l.Topology.b
           (Relationship.to_string l.Topology.rel_ab)
           l.Topology.delay));
  Buffer.contents buf

(* The largest node count a file may declare: ten times the largest
   graph [exp scale] builds. A header is checked before anything is
   allocated for it. *)
let max_nodes = 1_000_000

let of_string s =
  let lines = String.split_on_char '\n' s in
  let exception Bad of string in
  try
    let n = ref (-1) in
    let edges = ref [] in
    List.iteri
      (fun lineno line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
          let fail () =
            raise (Bad (Printf.sprintf "line %d: %S" (lineno + 1) line))
          in
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ "nodes"; count ] -> (
            match int_of_string_opt count with
            | Some c when c > max_nodes ->
              raise
                (Bad
                   (Printf.sprintf "line %d: node count %d over the %d limit"
                      (lineno + 1) c max_nodes))
            | Some c when c >= 0 -> n := c
            | _ -> fail ())
          | [ "link"; a; b; rel; delay ] -> (
            match
              ( int_of_string_opt a,
                int_of_string_opt b,
                Relationship.of_string rel,
                float_of_string_opt delay )
            with
            | Some a, Some b, Some rel, Some delay ->
              edges := (a, b, rel, delay) :: !edges
            | _ -> fail ())
          | _ -> fail ())
      lines;
    if !n < 0 then Error "missing 'nodes' header"
    else
      try Ok (Topology.create ~n:!n (List.rev !edges))
      with Invalid_argument msg -> Error msg
  with Bad msg -> Error msg

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      of_string content)
