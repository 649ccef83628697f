type edge = int * int * float

let barabasi_albert rng ~n ~m ~max_delay =
  if m < 1 then invalid_arg "Brite.barabasi_albert: m < 1";
  if n < m + 1 then invalid_arg "Brite.barabasi_albert: n < m + 1";
  let edges = ref [] in
  let degree = Array.make n 0 in
  (* Attachment targets, each node appearing once per unit of degree, so
     a uniform draw is degree-proportional. The final stub count is
     known up front — 2 stubs per edge, (m+1)m/2 clique edges plus m per
     attached node — so the draw array is allocated once and appended
     in place, instead of being rebuilt from a list per node (which made
     generation quadratic in n and dominated at 26k nodes). *)
  let total_stubs = (m * (m + 1)) + (2 * m * (n - m - 1)) in
  let stubs = Array.make total_stubs 0 in
  let num_stubs = ref 0 in
  let add_edge a b =
    edges := (a, b, Rng.float rng max_delay) :: !edges;
    degree.(a) <- degree.(a) + 1;
    degree.(b) <- degree.(b) + 1;
    stubs.(!num_stubs) <- a;
    stubs.(!num_stubs + 1) <- b;
    num_stubs := !num_stubs + 2
  in
  (* Seed clique on nodes 0..m. *)
  for a = 0 to m do
    for b = a + 1 to m do
      add_edge a b
    done
  done;
  for v = m + 1 to n - 1 do
    (* m distinct degree-proportional targets: uniform draws over the
       stubs filled so far. *)
    let limit = !num_stubs in
    let chosen = Hashtbl.create m in
    let attempts = ref 0 in
    while Hashtbl.length chosen < m && !attempts < 1000 do
      incr attempts;
      (* Index mirrored so the draw sequence matches the historical
         implementation (which drew from a newest-first array) — same
         seed, same topology. *)
      let target = stubs.(limit - 1 - Rng.int rng limit) in
      if target <> v && not (Hashtbl.mem chosen target) then
        Hashtbl.replace chosen target ()
    done;
    (* Degenerate fallback (tiny graphs): fill with lowest ids. *)
    let fill = ref 0 in
    while Hashtbl.length chosen < m do
      if !fill <> v && not (Hashtbl.mem chosen !fill) then
        Hashtbl.replace chosen !fill ();
      incr fill
    done;
    Hashtbl.iter (fun target () -> add_edge v target) chosen
  done;
  List.rev !edges

let annotated rng ~n ~m ~max_delay ~num_tiers =
  let edges = barabasi_albert rng ~n ~m ~max_delay in
  Tier.annotate ~n ~edges ~num_tiers
