(* Independent streams per artifact, all derived from the master seed so
   any experiment can be regenerated in isolation. *)
let stream cfg salt = Rng.create ((cfg.Config.seed * 1_000_003) + salt)

let caida cfg =
  As_gen.generate (stream cfg 1) (As_gen.caida_like ~n:cfg.Config.as_nodes)

let hetop cfg =
  As_gen.generate (stream cfg 2) (As_gen.hetop_like ~n:cfg.Config.as_nodes)

let brite_sized cfg ~n =
  Brite.annotated (stream cfg (3 + n)) ~n ~m:Config.brite_m ~max_delay:5.0
    ~num_tiers:4

let brite cfg = brite_sized cfg ~n:cfg.Config.brite_nodes

let sample_sources cfg topo =
  let rng = stream cfg 4 in
  let nodes = Array.init (Topology.num_nodes topo) (fun i -> i) in
  Array.to_list (Rng.sample rng cfg.Config.as_sources nodes)

let sample_links cfg topo ~count =
  let rng = stream cfg 5 in
  let links = Array.init (Topology.num_links topo) (fun i -> i) in
  Array.to_list (Rng.sample rng count links)

let sample_dests cfg topo ~count =
  let rng = stream cfg 7 in
  let nodes = Array.init (Topology.num_nodes topo) (fun i -> i) in
  Array.to_list (Rng.sample rng (min count (Array.length nodes)) nodes)

let sample_pairs cfg topo ~count =
  let n = Topology.num_nodes topo in
  if n < 2 then invalid_arg "Inputs.sample_pairs: need at least two nodes";
  let count = min count (n * (n - 1)) in
  let rng = stream cfg 6 in
  let seen = Hashtbl.create (2 * count) in
  let rec draw acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let s = Rng.int rng n in
      let d = Rng.int rng n in
      if s = d || Hashtbl.mem seen (s, d) then draw acc remaining
      else begin
        Hashtbl.replace seen (s, d) ();
        draw ((s, d) :: acc) (remaining - 1)
      end
    end
  in
  draw [] count
