(* The paper's motivation (§2), executable: why policies cannot simply
   be bolted onto a link-state protocol.

   Figure 1 - different topology views: with path filtering, A and B end
   up with different pictures of the network; each runs shortest-path on
   its own picture; the packet ping-pongs.

   Centaur on the same network: B announces only the downstream links of
   paths it actually uses, A reconstructs B's real path (Observation 1)
   and no loop can form.

     dune exec examples/why_not_link_state.exe *)

let name = function 0 -> "A" | 1 -> "B" | 2 -> "C" | n -> string_of_int n

let () =
  (* Triangle A-B, A-C, B-C (the paper's Figure 1). *)
  let topo = Fixtures.figure1_triangle () in
  let a = 0 and b = 1 and c = 2 in

  Printf.printf
    "Figure 1 scenario: links A-B, A-C, B-C. Policy filtering hides\n\
     A-C from A's view and B-C from B's view - each view contains only\n\
     one path to C.\n\n";

  (* Per-node filtered views. *)
  let view_of n =
    if n = a then [ (a, b); (b, c) ] (* A doesn't know A-C *)
    else if n = b then [ (a, b); (a, c) ] (* B doesn't know B-C *)
    else [ (a, b); (a, c); (b, c) ]
  in
  let forwarding node =
    Naive_link_state.next_hop topo ~view:(view_of node) ~src:node ~dest:c
  in
  List.iter
    (fun node ->
      match forwarding node with
      | Some hop ->
        Printf.printf "  naive link-state: %s forwards to C via %s\n"
          (name node) (name hop)
      | None -> Printf.printf "  naive link-state: %s has no route\n" (name node))
    [ a; b ];
  let show p = String.concat " -> " (List.map name p) in
  (match Path.follow forwarding ~src:a ~dest:c with
  | Path.Reached p -> Printf.printf "  packet path: %s (delivered)\n" (show p)
  | Path.Looped p ->
    Printf.printf "  packet path: %s ... LOOP - never delivered\n\n" (show p)
  | Path.Stuck p ->
    Printf.printf "  packet path: %s ... no route - never delivered\n\n"
      (show p));

  (* The same network under Centaur. *)
  Printf.printf
    "Centaur on the same triangle: every announcement is a downstream\n\
     link of a path the announcer actually uses, so A learns B's real\n\
     route and loop detection works (Observation 1).\n\n";
  let runner = Protocols.Centaur_net.network topo in
  ignore (runner.Sim.Runner.cold_start ());
  List.iter
    (fun node ->
      match runner.Sim.Runner.path ~src:node ~dest:c with
      | Some p ->
        Printf.printf "  centaur: %s routes to C via %s\n" (name node) (show p)
      | None -> Printf.printf "  centaur: %s has no route to C\n" (name node))
    [ a; b ];
  match
    Path.follow
      (fun v -> runner.Sim.Runner.next_hop ~src:v ~dest:c)
      ~src:a ~dest:c
  with
  | Path.Reached p -> Printf.printf "  packet path: %s (delivered)\n" (show p)
  | Path.Looped _ -> Printf.printf "  packet path: LOOP?!\n"
  | Path.Stuck _ -> Printf.printf "  packet path: no route?!\n"
