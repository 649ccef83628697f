(* The path store against a model: random paths are interned, held and
   let go, and after every step the store must hold exactly the paths
   the model says, each with its holders. *)

open Centaur

(* The id of a root-first path, interned destination first as a node
   interns its derivations. *)
let intern store p =
  List.fold_right
    (fun v rest ->
      if rest < 0 then Path_store.single store v else Path_store.extend store v rest)
    p (-1)

type op = Intern of int list | Hold of int | Let_go of int

let nodes = 6

let gen_path =
  QCheck.Gen.(
    let* len = int_range 1 4 in
    let* perm = shuffle_l (List.init nodes Fun.id) in
    return (List.filteri (fun i _ -> i < len) perm))

let gen_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun p -> Intern p) gen_path);
        (1, map (fun i -> Hold i) nat);
        (2, map (fun i -> Let_go i) nat) ])

let print_op = function
  | Intern p -> "intern " ^ Path.to_string p
  | Hold i -> Printf.sprintf "hold #%d" i
  | Let_go i -> Printf.sprintf "let go #%d" i

let rec suffixes = function [] -> [] | _ :: rest as p -> p :: suffixes rest

(* What the store must hold when the model holds [held] (one element
   per hold): every suffix of a held path, once, counted once per hold
   and once per entry it is the rest of. *)
let expected held =
  let live = List.sort_uniq Path.compare (List.concat_map suffixes held) in
  List.map
    (fun p ->
      let holds = List.length (List.filter (Path.equal p) held) in
      let rests =
        List.length
          (List.filter (function _ :: rest -> Path.equal rest p | [] -> false) live)
      in
      (p, holds + rests))
    live

let store_matches_model =
  QCheck.Test.make ~name:"path store = multiset model"
    ~count:(Helpers.qcheck_count 500)
    QCheck.(make ~print:(Print.list print_op) Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let store = Path_store.create ~nodes in
      (* The model: one (id, path) per hold, newest first. *)
      let held = ref [] and peak = ref 0 in
      let pick i = List.nth !held (i mod List.length !held) in
      let remove_one x =
        let rec go = function
          | [] -> []
          | y :: rest -> if y == x then rest else y :: go rest
        in
        held := go !held
      in
      List.for_all
        (fun op ->
          let fresh = ref [] in
          (match op with
          | Intern p ->
            let id = intern store p in
            Path_store.acquire store id;
            fresh := [ id ];
            held := (id, p) :: !held
          | Hold i when !held <> [] ->
            let id, p = pick i in
            Path_store.acquire store id;
            held := (id, p) :: !held
          | Let_go i when !held <> [] ->
            let ((id, _) as x) = pick i in
            Path_store.release store id;
            remove_one x
          | Hold _ | Let_go _ -> ());
          let entries = Path_store.entries store in
          peak := max !peak (List.length entries);
          (* Each id's list is the path it was built from. *)
          List.for_all (fun (id, p) -> Path_store.path store id = p) !held
          (* Two held ids are equal exactly when their paths are. *)
          && List.for_all
               (fun (a, p) -> List.for_all (fun (b, q) -> (a = b) = Path.equal p q) !held)
               !held
          (* Exactly the model's entries and holders: a freed entry is
             gone and no longer holds its rest, and none is left at
             zero. *)
          && entries = expected (List.map snd !held)
          (* A new id is a freed one while there is any: ids stay below
             the most entries ever live. *)
          && List.for_all (fun id -> id < !peak) !fresh)
        ops)

let test_release_errors () =
  let store = Path_store.create ~nodes:3 in
  let id = intern store [ 0; 1; 2 ] in
  Alcotest.check_raises "an unheld id"
    (Invalid_argument "Path_store.release: id not held") (fun () ->
      Path_store.release store id);
  Path_store.acquire store id;
  Path_store.release store id;
  Alcotest.(check (list (pair (list int) int))) "all freed" [] (Path_store.entries store);
  Alcotest.check_raises "a freed id"
    (Invalid_argument "Path_store.acquire: freed id") (fun () ->
      Path_store.acquire store id);
  Alcotest.(check (list int)) "no id" [] (Path_store.path store (-1))

let suite =
  [ QCheck_alcotest.to_alcotest store_matches_model;
    Alcotest.test_case "release and acquire errors" `Quick test_release_errors ]
