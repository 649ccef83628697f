(* The paper's Figure 4 walkthrough: why downstream link announcements
   alone are not enough, and how Permission Lists restore Observation 1.

     dune exec examples/policy_hiding.exe *)

let name = function
  | 0 -> "A"
  | 1 -> "B"
  | 2 -> "C"
  | 3 -> "D"
  | 4 -> "D'"
  | n -> string_of_int n

let pp_path p = "<" ^ String.concat ", " (List.map name p) ^ ">"

let () =
  let open Fixtures in
  Printf.printf
    "Scenario (paper Figure 4): C prefers <C, A, B, D> to reach D, but\n\
     uses <C, D, D'> to reach D' - so the direct link C->D is a\n\
     downstream link and must be announced, yet the path <C, D> must NOT\n\
     be derivable from C's P-graph.\n\n";

  (* C's selected path set, chosen by the scenario's local preference. *)
  let paths = [ [ c; a; b; d ]; [ c; d; d' ] ] in
  let g = Centaur.Pgraph.of_paths ~root:c paths in

  Printf.printf "C's local P-graph (root C):\n";
  List.iter
    (fun (p, ch, data) ->
      let pl = data.Centaur.Pgraph.plist in
      if Centaur.Permission_list.is_empty pl then
        Printf.printf "  %s -> %s\n" (name p) (name ch)
      else
        Printf.printf "  %s -> %s with Permission List %s\n" (name p) (name ch)
          (Format.asprintf "%a" Centaur.Permission_list.pp pl))
    (Centaur.Pgraph.links g);

  Printf.printf "\nD is multi-homed (parents B and C), so both in-links\n";
  Printf.printf "carry Permission Lists - exactly Figure 4(c).\n\n";

  (* DerivePath disambiguates. *)
  let show dest =
    match Centaur.Pgraph.derive_path g ~dest with
    | Some p -> Printf.printf "  derive %-3s = %s\n" (name dest) (pp_path p)
    | None -> Printf.printf "  derive %-3s = (not derivable)\n" (name dest)
  in
  Printf.printf "DerivePath on C's P-graph:\n";
  show d;
  show d';

  (* The policy-violating path <C, D> is gone: the Permission List on
     C->D permits only traffic destined to D' continuing via D'. *)
  let pl = Centaur.Pgraph.plist g ~parent:c ~child:d in
  Printf.printf
    "\nPermission List on C->D: permits (dest=D', next=D') = %b,\n\
    \                         permits (dest=D,  next=self) = %b\n"
    (Centaur.Permission_list.permit pl ~dest:d' ~next:d')
    (Centaur.Permission_list.permit pl ~dest:d ~next:(-1));

  (* Upstream, A assembles G_{C->A} from C's announcements and can only
     reconstruct C's actual routes - Observation 1 holds. *)
  Printf.printf
    "\nSo an upstream node importing C's announcements reconstructs\n\
     exactly C's selected paths - never the policy-violating <A, C, D>.\n"
