(* Shared helpers for the test suites. *)

(* QCheck iteration budget: [qcheck_count d] is [d] unless the
   CENTAUR_QCHECK_COUNT environment variable overrides it (e.g. a
   nightly soak raising every property to thousands of cases). *)
let qcheck_count default =
  match Sys.getenv_opt "CENTAUR_QCHECK_COUNT" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let path_testable =
  Alcotest.testable
    (fun fmt p -> Format.pp_print_string fmt (Path.to_string p))
    Path.equal

let path_opt = Alcotest.option path_testable

let check_path = Alcotest.check path_testable

let check_path_opt = Alcotest.check path_opt

(* Directed (upstream, downstream) pairs along a path, in order. *)
let rec path_links = function
  | a :: (b :: _ as rest) -> (a, b) :: path_links rest
  | [] | [ _ ] -> []

(* The node after [n] on [p], or -1 when [n] is the destination or not
   on [p]: the Permission-List next hop of a path through [n]. *)
let rec next_after p n =
  match p with
  | a :: (b :: _ as rest) -> if a = n then b else next_after rest n
  | [] | [ _ ] -> -1

(* Change several links at one instant, then settle once. *)
let flip_many (runner : Sim.Runner.t) changes =
  runner.Sim.Runner.inject changes;
  ignore (runner.Sim.Runner.run_to_quiescence ())

(* Small annotated random topology for randomized suites. *)
let random_as_topology ~seed ~n =
  let rng = Rng.create seed in
  As_gen.generate rng (As_gen.caida_like ~n)

let random_brite ~seed ~n ~m =
  let rng = Rng.create seed in
  Brite.annotated rng ~n ~m ~max_delay:5.0 ~num_tiers:4

(* Connected random peer graph on [n] nodes: a random spanning tree
   plus up to [extra] more links, each with a delay drawn from [delays]
   (small integers make equal path lengths and delivery times common). *)
let random_connected ~seed ~n ~extra ~delays =
  let rng = Rng.create seed in
  let delay () = delays.(Rng.int rng (Array.length delays)) in
  let linked = Hashtbl.create 16 in
  let edges = ref [] in
  let add a b =
    let key = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem linked key) then begin
      Hashtbl.add linked key ();
      edges := (a, b, Relationship.Peer, delay ()) :: !edges
    end
  in
  for v = 1 to n - 1 do
    add (Rng.int rng v) v
  done;
  for _ = 1 to extra do
    add (Rng.int rng n) (Rng.int rng n)
  done;
  Topology.create ~n (List.rev !edges)

(* Ground-truth next hops from the static solver, for every (src, dest). *)
let solver_next_hops topo =
  let n = Topology.num_nodes topo in
  let table = Hashtbl.create (n * n) in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    for src = 0 to n - 1 do
      if src <> dest then
        match Solver.next_hop r src with
        | Some hop -> Hashtbl.replace table (src, dest) hop
        | None -> ()
    done
  done;
  table

(* Compare a converged protocol runner's forwarding decisions against
   the solver's stable solution on every pair. *)
let check_matches_solver ?(what = "protocol vs solver") topo
    (runner : Sim.Runner.t) =
  let n = Topology.num_nodes topo in
  let truth = solver_next_hops topo in
  for dest = 0 to n - 1 do
    for src = 0 to n - 1 do
      if src <> dest then begin
        let expected = Hashtbl.find_opt truth (src, dest) in
        let actual = runner.Sim.Runner.next_hop ~src ~dest in
        Alcotest.(check (option int))
          (Printf.sprintf "%s: next hop %d->%d" what src dest)
          expected actual
      end
    done
  done
