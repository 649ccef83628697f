(* Policy DSL: AST, parser, validator, and a compiler that resolves
   every filter chain once and lowers its guards to small test trees,
   plus the one chain walk that evaluates them. See policy.mli for the
   language definition. *)

type pred =
  | Any
  | Dest_in of int list
  | Class_in of Gao_rexford.route_class list
  | Path_through of int
  | Longer_than of int
  | Has_tag of int
  | Not of pred
  | And of pred * pred
  | Or of pred * pred

type action =
  | Permit
  | Deny
  | Pref of int
  | Set_tag of int
  | Clear_tag of int

type rule = { guard : pred; actions : action list; line : int }

type peer_sel = Any_peer | With_role of Relationship.t | Peer of int

type direction = Import | Export

type clause =
  | Filter of { dir : direction; sel : peer_sel; rules : rule list }
  | Originate of int list

type node_policy = { node : int; clauses : clause list }

type config = node_policy list

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)
(* ------------------------------------------------------------------ *)

let rule guard actions = { guard; actions; line = 0 }
let import_from sel rules = Filter { dir = Import; sel; rules }
let export_to sel rules = Filter { dir = Export; sel; rules }
let originate dests = Originate dests
let node node clauses = { node; clauses }

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type tok =
  | INT of int
  | ID of string
  | LBRACE
  | RBRACE
  | LPAR
  | RPAR
  | ARROW
  | DOTDOT
  | EOF

exception Err of int * string  (* line, message *)

let err line fmt = Printf.ksprintf (fun m -> raise (Err (line, m))) fmt

let tok_to_string = function
  | INT n -> string_of_int n
  | ID s -> Printf.sprintf "'%s'" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAR -> "'('"
  | RPAR -> "')'"
  | ARROW -> "'->'"
  | DOTDOT -> "'..'"
  | EOF -> "end of input"

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let lex src =
  let n = String.length src in
  let toks = ref [] and line = ref 1 and i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '{' then (push LBRACE; incr i)
    else if c = '}' then (push RBRACE; incr i)
    else if c = '(' then (push LPAR; incr i)
    else if c = ')' then (push RPAR; incr i)
    else if c = '-' then begin
      if !i + 1 < n && src.[!i + 1] = '>' then (push ARROW; i := !i + 2)
      else err !line "stray '-'"
    end
    else if c = '.' then begin
      if !i + 1 < n && src.[!i + 1] = '.' then (push DOTDOT; i := !i + 2)
      else err !line "stray '.'"
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      let s = String.sub src !i (!j - !i) in
      (match int_of_string_opt s with
       | Some v -> push (INT v)
       | None -> err !line "integer literal %s too large" s);
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do incr j done;
      push (ID (String.sub src !i (!j - !i)));
      i := !j
    end
    else err !line "unexpected character '%c'" c
  done;
  push EOF;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent over the token array)                    *)
(* ------------------------------------------------------------------ *)

type parser_state = { toks : (tok * int) array; mutable pos : int }

let peek ps = fst ps.toks.(ps.pos)
let cur_line ps = snd ps.toks.(ps.pos)
let advance ps = ps.pos <- ps.pos + 1

let expect ps t what =
  if peek ps = t then advance ps
  else err (cur_line ps) "expected %s, found %s" what (tok_to_string (peek ps))

let expect_int ps what =
  match peek ps with
  | INT v -> advance ps; v
  | t -> err (cur_line ps) "expected %s, found %s" what (tok_to_string t)

let expect_id ps =
  match peek ps with
  | ID s -> advance ps; s
  | t -> err (cur_line ps) "expected a keyword, found %s" (tok_to_string t)

(* Keep expanded ranges bounded so a typo like `0..999999999` can't eat
   the heap before validation sees it. *)
let max_range_span = 1 lsl 16

let parse_dest_set ps =
  expect ps LBRACE "'{'";
  let dests = ref [] in
  let continue = ref true in
  while !continue do
    match peek ps with
    | INT a ->
        let line = cur_line ps in
        advance ps;
        if peek ps = DOTDOT then begin
          advance ps;
          let b = expect_int ps "the upper bound of the range" in
          if b < a then err line "empty range %d..%d" a b;
          if b - a >= max_range_span then
            err line "range %d..%d too large (max %d destinations)" a b
              max_range_span;
          for d = b downto a do dests := d :: !dests done
        end
        else dests := a :: !dests
    | RBRACE -> advance ps; continue := false
    | t -> err (cur_line ps) "expected a destination or '}', found %s"
             (tok_to_string t)
  done;
  if !dests = [] then err (cur_line ps) "empty destination set";
  List.rev !dests

let class_of_name line = function
  | "origin" -> Gao_rexford.Origin
  | "customer" -> Gao_rexford.Cust
  | "peer" -> Gao_rexford.Peer_r
  | "provider" -> Gao_rexford.Prov
  | s -> err line "unknown route class '%s' (origin/customer/peer/provider)" s

let parse_class_set ps =
  expect ps LBRACE "'{'";
  let classes = ref [] in
  let continue = ref true in
  while !continue do
    match peek ps with
    | ID s ->
        let line = cur_line ps in
        advance ps;
        classes := class_of_name line s :: !classes
    | RBRACE -> advance ps; continue := false
    | t -> err (cur_line ps) "expected a route class or '}', found %s"
             (tok_to_string t)
  done;
  if !classes = [] then err (cur_line ps) "empty class set";
  List.rev !classes

let rec parse_pred ps = parse_or ps

and parse_or ps =
  let p = parse_and ps in
  if peek ps = ID "or" then (advance ps; Or (p, parse_or ps)) else p

and parse_and ps =
  let p = parse_unary ps in
  if peek ps = ID "and" then (advance ps; And (p, parse_and ps)) else p

and parse_unary ps =
  match peek ps with
  | ID "not" -> advance ps; Not (parse_unary ps)
  | LPAR ->
      advance ps;
      let p = parse_pred ps in
      expect ps RPAR "')'";
      p
  | ID "any" -> advance ps; Any
  | ID "dest" ->
      advance ps;
      expect ps (ID "in") "'in'";
      Dest_in (parse_dest_set ps)
  | ID "class" ->
      advance ps;
      expect ps (ID "in") "'in'";
      Class_in (parse_class_set ps)
  | ID "path" ->
      advance ps;
      expect ps (ID "through") "'through'";
      Path_through (expect_int ps "a node id")
  | ID "longer" ->
      advance ps;
      expect ps (ID "than") "'than'";
      Longer_than (expect_int ps "a length bound")
  | ID "tag" -> advance ps; Has_tag (expect_int ps "a tag number")
  | t -> err (cur_line ps) "expected a predicate, found %s" (tok_to_string t)

let parse_actions ps =
  let acts = ref [] in
  let continue = ref true in
  while !continue do
    (match peek ps with
     | ID "permit" -> advance ps; acts := Permit :: !acts
     | ID "deny" -> advance ps; acts := Deny :: !acts
     | ID "pref" -> advance ps; acts := Pref (expect_int ps "a preference") :: !acts
     | ID "tag" -> advance ps; acts := Set_tag (expect_int ps "a tag number") :: !acts
     | ID "untag" -> advance ps; acts := Clear_tag (expect_int ps "a tag number") :: !acts
     | t ->
         if !acts = [] then
           err (cur_line ps) "expected an action, found %s" (tok_to_string t)
         else continue := false);
  done;
  List.rev !acts

let parse_rule ps =
  let line = cur_line ps in
  match peek ps with
  | ID "match" ->
      advance ps;
      let guard = parse_pred ps in
      expect ps ARROW "'->'";
      { guard; actions = parse_actions ps; line }
  | ID "default" ->
      advance ps;
      expect ps ARROW "'->'";
      { guard = Any; actions = parse_actions ps; line }
  | t -> err (cur_line ps) "expected 'match', 'default' or '}', found %s"
           (tok_to_string t)

let parse_rules ps =
  expect ps LBRACE "'{'";
  let rules = ref [] in
  while peek ps <> RBRACE do rules := parse_rule ps :: !rules done;
  advance ps;
  List.rev !rules

let parse_sel ps =
  match peek ps with
  | ID "any" -> advance ps; Any_peer
  | ID "customer" -> advance ps; With_role Relationship.Customer
  | ID "provider" -> advance ps; With_role Relationship.Provider
  | ID "peer" -> advance ps; With_role Relationship.Peer
  | ID "sibling" -> advance ps; With_role Relationship.Sibling
  | ID "neighbor" -> advance ps; Peer (expect_int ps "a neighbor id")
  | t ->
      err (cur_line ps)
        "expected a peer selector (any/customer/provider/peer/sibling/neighbor), found %s"
        (tok_to_string t)

let parse_item ps =
  match expect_id ps with
  | "originate" ->
      let dests = ref [ expect_int ps "a destination" ] in
      let continue = ref true in
      while !continue do
        match peek ps with
        | INT d -> advance ps; dests := d :: !dests
        | _ -> continue := false
      done;
      Originate (List.rev !dests)
  | "import" ->
      expect ps (ID "from") "'from'";
      let sel = parse_sel ps in
      Filter { dir = Import; sel; rules = parse_rules ps }
  | "export" ->
      expect ps (ID "to") "'to'";
      let sel = parse_sel ps in
      Filter { dir = Export; sel; rules = parse_rules ps }
  | s -> err (cur_line ps) "expected 'originate', 'import' or 'export', found '%s'" s

let parse_stanza ps =
  expect ps (ID "node") "'node'";
  let n = expect_int ps "a node id" in
  expect ps LBRACE "'{'";
  let clauses = ref [] in
  while peek ps <> RBRACE do clauses := parse_item ps :: !clauses done;
  advance ps;
  { node = n; clauses = List.rev !clauses }

let parse src =
  match
    let ps = { toks = lex src; pos = 0 } in
    let stanzas = ref [] in
    while peek ps <> EOF do stanzas := parse_stanza ps :: !stanzas done;
    List.rev !stanzas
  with
  | config -> Ok config
  | exception Err (line, m) ->
      Error (Printf.sprintf "policy: syntax error at line %d: %s" line m)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> parse src
  | exception Sys_error m -> Error (Printf.sprintf "policy: %s" m)

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

let inv fmt = Printf.ksprintf (fun m -> raise (Invalid ("policy: " ^ m))) fmt

(* The compiled tables key a (node, id) pair as [node lsl 31 lor id]
   ([pack_node_dest]), so every id must fit in 31 bits. *)
let max_id = (1 lsl 31) - 1

let check_node_id num_nodes what id =
  if id < 0 then inv "negative %s id %d" what id;
  match num_nodes with
  | Some n when id >= n ->
      inv "%s %d out of range (topology has %d nodes)" what id n
  | _ -> if id > max_id then inv "%s %d out of range (0..%d)" what id max_id

let check_tag t = if t < 0 || t > 62 then inv "tag %d out of range (0..62)" t

let rec check_pred num_nodes = function
  | Any -> ()
  | Dest_in [] -> inv "empty destination set"
  | Dest_in ds -> List.iter (check_node_id num_nodes "destination") ds
  | Class_in [] -> inv "empty class set"
  | Class_in _ -> ()
  | Path_through x -> check_node_id num_nodes "path node" x
  | Longer_than k -> if k < 0 then inv "negative length bound %d" k
  | Has_tag t -> check_tag t
  | Not p -> check_pred num_nodes p
  | And (p, q) | Or (p, q) -> check_pred num_nodes p; check_pred num_nodes q

let check_action = function
  | Permit | Deny -> ()
  | Pref v -> if v < 0 || v > 65535 then inv "pref %d out of range (0..65535)" v
  | Set_tag t | Clear_tag t -> check_tag t

let is_terminal = function Permit | Deny -> true | _ -> false

let check_rule num_nodes r =
  if r.actions = [] then inv "rule with no actions";
  check_pred num_nodes r.guard;
  let rec acts = function
    | [] -> ()
    | [ a ] -> check_action a
    | a :: rest ->
        check_action a;
        if is_terminal a then inv "unreachable action after permit/deny";
        acts rest
  in
  acts r.actions

(* A rule is a terminal catch-all when its guard always holds and its
   action list always terminates — anything after it can never run. *)
let catches_all r =
  r.guard = Any && (match List.rev r.actions with a :: _ -> is_terminal a | [] -> false)

let check_rules num_nodes rules =
  let rec go = function
    | [] -> ()
    | [ r ] -> check_rule num_nodes r
    | r :: rest ->
        check_rule num_nodes r;
        if catches_all r then inv "unreachable rule after a terminal catch-all";
        go rest
  in
  go rules

let check_clause num_nodes = function
  | Originate [] -> inv "empty originate list"
  | Originate ds -> List.iter (check_node_id num_nodes "originated destination") ds
  | Filter { sel; rules; _ } ->
      (match sel with
       | Peer p -> check_node_id num_nodes "neighbor" p
       | Any_peer | With_role _ -> ());
      check_rules num_nodes rules

let validate ?num_nodes config =
  match
    let seen = Hashtbl.create 16 in
    List.iter
      (fun np ->
        check_node_id num_nodes "node" np.node;
        if Hashtbl.mem seen np.node then inv "duplicate stanza for node %d" np.node;
        Hashtbl.add seen np.node ();
        List.iter (check_clause num_nodes) np.clauses)
      config
  with
  | () -> Ok ()
  | exception Invalid m -> Error m

(* ------------------------------------------------------------------ *)
(* Compiler                                                           *)
(* ------------------------------------------------------------------ *)

(* A guard lowered for evaluation: [dest in] sets become bitsets over
   their id range (or sorted id arrays, see [dest_set]), [class in] sets
   masks over {!Gao_rexford.class_rank}. *)
type test =
  | True
  | Dest_bits of { lo : int; bits : Bytes.t }  (* bit [d - lo] per id [d] *)
  | Dest_ids of int array  (* sorted, duplicate-free *)
  | Class_mask of int
  | Through of int
  | Longer of int
  | Tag of int
  | Neg of test
  | Both of test * test
  | Either of test * test

(* One rule of a resolved chain; [src_line] is the rule's [line]. *)
type step = { test : test; acts : action list; src_line : int }

(* A [dest in] set (validated non-empty) as a bitset over [min, max],
   offset by the smallest id — unless that would take more than 8x the
   bytes of the sorted ids, as a sparse set over a wide range does: then
   the sorted array, binary-searched. Either way the bytes are bounded
   by the set, not by its largest id. *)
let dest_set dests =
  let ids = Array.of_list (List.sort_uniq compare dests) in
  let lo = ids.(0) and hi = ids.(Array.length ids - 1) in
  let bytes = ((hi - lo) lsr 3) + 1 in
  if bytes > 8 * 8 * Array.length ids then Dest_ids ids
  else begin
    let bits = Bytes.make bytes '\000' in
    Array.iter
      (fun d ->
        let i = d - lo in
        let b = Char.code (Bytes.get bits (i lsr 3)) in
        Bytes.set bits (i lsr 3) (Char.chr (b lor (1 lsl (i land 7)))))
      ids;
    Dest_bits { lo; bits }
  end

let class_mask classes =
  List.fold_left
    (fun m c -> m lor (1 lsl Gao_rexford.class_rank c))
    0 classes

let dir_code = function Import -> 0 | Export -> 1

let role_code = function
  | Relationship.Customer -> 0
  | Relationship.Provider -> 1
  | Relationship.Peer -> 2
  | Relationship.Sibling -> 3

let role_key node dir role = (node lsl 3) lor (dir lsl 2) lor role_code role

let pack_node_dest node dest = (node lsl 31) lor dest

type compiled = {
  source : config;        (* the AST this was lowered from; [] for default *)
  chains : step array array;
  by_role : Flat_tbl.t;
      (* [role_key] -> [chain lsl 1], plus 1 when the node has
         [neighbor] chains in that direction *)
  by_peer : Flat_tbl.t array;  (* per direction: (node, peer) packed -> chain *)
  origins_tbl : Flat_tbl.t;           (* packed (node, dest) -> 1 *)
  origins_by_node : (int, int list) Hashtbl.t;
  custom : bool;
  num_sets : int;
  num_stanzas : int;
  (* scenario override state *)
  leak_tbl : Flat_tbl.t;
  corrupt_tbl : Flat_tbl.t;
  claims_tbl : Flat_tbl.t;            (* packed (node, dest) -> 1 *)
  claims_by_node : (int, int list) Hashtbl.t;
  mutable overrides : int;            (* active override count *)
  mutable rejected : int;
}

(* Each clause's rules are lowered once; a chain is the concatenation of
   the clauses that select it, so chains share their steps. *)
let lower config =
  let by_role = Flat_tbl.create () in
  let by_peer = [| Flat_tbl.create (); Flat_tbl.create () |] in
  let origins_tbl = Flat_tbl.create () in
  let origins_by_node = Hashtbl.create 16 in
  let chains = ref [] and num_chains = ref 0 and num_sets = ref 0 in
  let rec test = function
    | Any -> True
    | Dest_in ds -> incr num_sets; dest_set ds
    | Class_in cs -> Class_mask (class_mask cs)
    | Path_through x -> Through x
    | Longer_than k -> Longer k
    | Has_tag b -> Tag b
    | Not p -> Neg (test p)
    | And (p, q) -> Both (test p, test q)
    | Or (p, q) -> Either (test p, test q)
  in
  let step r = { test = test r.guard; acts = r.actions; src_line = r.line } in
  (* The chain of every [any] clause plus the clauses [selects] picks,
     in declaration order; returns its index. *)
  let chain filters selects =
    chains :=
      Array.concat
        (List.filter_map
           (fun (sel, steps) ->
             if sel = Any_peer || selects sel then Some steps else None)
           filters)
      :: !chains;
    incr num_chains;
    !num_chains - 1
  in
  List.iter
    (fun np ->
      let origs =
        List.concat_map (function Originate ds -> ds | Filter _ -> []) np.clauses
      in
      if origs <> [] then begin
        let origs = List.sort_uniq compare origs in
        Hashtbl.replace origins_by_node np.node origs;
        List.iter
          (fun d -> Flat_tbl.set origins_tbl (pack_node_dest np.node d) 1)
          origs
      end;
      List.iter
        (fun dir ->
          let dc = dir_code dir in
          let filters =
            List.filter_map
              (function
                | Filter f when f.dir = dir ->
                    Some (f.sel, Array.of_list (List.map step f.rules))
                | _ -> None)
              np.clauses
          in
          if filters <> [] then begin
            (* Peer-keyed chains replace the role view for the peers
               explicitly named. *)
            let peers =
              List.sort_uniq compare
                (List.filter_map
                   (fun (sel, _) -> match sel with Peer p -> Some p | _ -> None)
                   filters)
            in
            List.iter
              (fun p ->
                Flat_tbl.set by_peer.(dc) (pack_node_dest np.node p)
                  (chain filters (fun sel -> sel = Peer p)))
              peers;
            (* Role-keyed chains: every role clause for that role plus
               the [any] clauses. *)
            List.iter
              (fun role ->
                Flat_tbl.set by_role (role_key np.node dc role)
                  ((chain filters (fun sel -> sel = With_role role) lsl 1)
                   lor Bool.to_int (peers <> [])))
              Relationship.all
          end)
        [ Import; Export ])
    config;
  { source = config;
    chains = Array.of_list (List.rev !chains);
    by_role; by_peer; origins_tbl; origins_by_node;
    custom = config <> [];
    num_sets = !num_sets;
    num_stanzas = List.length config;
    leak_tbl = Flat_tbl.create ();
    corrupt_tbl = Flat_tbl.create ();
    claims_tbl = Flat_tbl.create ();
    claims_by_node = Hashtbl.create 4;
    overrides = 0;
    rejected = 0 }

let compile ?num_nodes config =
  match validate ?num_nodes config with
  | Error _ as e -> e
  | Ok () -> Ok (lower config)

let compile_exn ?num_nodes config =
  match compile ?num_nodes config with
  | Ok c -> c
  | Error m -> invalid_arg m

let default () = lower []

let is_default t = (not t.custom) && t.overrides = 0

let configured = function
  | Some p when not (is_default p) -> Some p
  | Some _ | None -> None

let source t = t.source

let overrides_active t = t.overrides > 0

let summary t =
  let chains = Array.length t.chains in
  Printf.sprintf "policy: %d node stanza%s, %d compiled chain%s, %d dest set%s"
    t.num_stanzas (if t.num_stanzas = 1 then "" else "s")
    chains (if chains = 1 then "" else "s")
    t.num_sets (if t.num_sets = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

(* A walk's verdict, packed in one int so that evaluation allocates
   nothing: the low 16 bits hold the preference, [denied] and
   [fell_off] flag a deny and a walk off the chain's end, and the bits
   from [line_shift] up hold the deciding rule's source line (0: none). *)
let pref_mask = 0xFFFF
let denied = 1 lsl 16
let fell_off = 1 lsl 17
let line_shift = 18

let rec path_through path x =
  match path with [] -> false | y :: tl -> y = x || path_through tl x

(* Whether [x] is in the sorted [ids.(lo .. hi - 1)]. *)
let rec mem_sorted ids x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = Array.unsafe_get ids mid in
  y = x
  || if y < x then mem_sorted ids x (mid + 1) hi else mem_sorted ids x lo mid

let rec holds test ~tags ~dest ~cls_rank ~len ~path =
  match test with
  | True -> true
  | Dest_bits { lo; bits } ->
      let i = dest - lo in
      i >= 0
      && i lsr 3 < Bytes.length bits
      && Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7))
         <> 0
  | Dest_ids ids -> mem_sorted ids dest 0 (Array.length ids)
  | Class_mask m -> m land (1 lsl cls_rank) <> 0
  | Through x -> path_through path x
  | Longer k -> len > k
  | Tag b -> tags land (1 lsl b) <> 0
  | Neg p -> not (holds p ~tags ~dest ~cls_rank ~len ~path)
  | Both (p, q) ->
      holds p ~tags ~dest ~cls_rank ~len ~path
      && holds q ~tags ~dest ~cls_rank ~len ~path
  | Either (p, q) ->
      holds p ~tags ~dest ~cls_rank ~len ~path
      || holds q ~tags ~dest ~cls_rank ~len ~path

(* First match wins, but [pref]/[tag]/[untag] fall through to the next
   rule. [line] is the source line of the rule that last set [pref]: a
   permit cites it (else the permitting rule), a deny cites the denying
   rule. *)
let rec walk chain i ~dest ~cls_rank ~len ~path ~pref ~line ~tags =
  if i = Array.length chain then (line lsl line_shift) lor fell_off lor pref
  else
    let s = Array.unsafe_get chain i in
    if holds s.test ~tags ~dest ~cls_rank ~len ~path then
      apply chain i s s.acts ~dest ~cls_rank ~len ~path ~pref ~line ~tags
    else walk chain (i + 1) ~dest ~cls_rank ~len ~path ~pref ~line ~tags

and apply chain i s acts ~dest ~cls_rank ~len ~path ~pref ~line ~tags =
  match acts with
  | [] -> walk chain (i + 1) ~dest ~cls_rank ~len ~path ~pref ~line ~tags
  | Permit :: _ ->
      ((if line > 0 then line else s.src_line) lsl line_shift) lor pref
  | Deny :: _ -> (s.src_line lsl line_shift) lor denied
  | Pref v :: rest ->
      apply chain i s rest ~dest ~cls_rank ~len ~path ~pref:v
        ~line:(if s.src_line > 0 then s.src_line else line) ~tags
  | Set_tag b :: rest ->
      apply chain i s rest ~dest ~cls_rank ~len ~path ~pref ~line
        ~tags:(tags lor (1 lsl b))
  | Clear_tag b :: rest ->
      apply chain i s rest ~dest ~cls_rank ~len ~path ~pref ~line
        ~tags:(tags land lnot (1 lsl b))

(* The configured chain's verdict, overrides aside; a node with no
   chain for this peer falls off at once. Only a node with [neighbor]
   chains in this direction pays a second probe. *)
let verdict t ~dir ~node ~peer ~role ~dest ~cls ~len ~path =
  let r =
    Flat_tbl.find_default t.by_role (role_key node dir role) ~default:(-1)
  in
  let c =
    if r < 0 || r land 1 = 0 then r asr 1
    else
      Flat_tbl.find_default t.by_peer.(dir) (pack_node_dest node peer)
        ~default:(r asr 1)
  in
  if c < 0 then fell_off
  else
    walk t.chains.(c) 0 ~dest ~cls_rank:(Gao_rexford.class_rank cls) ~len
      ~path ~pref:0 ~line:0 ~tags:0

(* An import walk that falls off accepts with the accumulated
   preference; an export walk that falls off defers to Gao–Rexford. *)
let import_pref v = if v land denied <> 0 then -1 else v land pref_mask

let export_allowed v ~cls ~role =
  if v land fell_off <> 0 then Gao_rexford.exportable ~cls ~to_role:role
  else v land denied = 0

let import_eval t ~node ~peer ~role ~dest ~cls ~len ~path =
  if not t.custom then 0
  else import_pref (verdict t ~dir:0 ~node ~peer ~role ~dest ~cls ~len ~path)

let export_ok t ~node ~peer ~role ~dest ~cls ~len ~path =
  if t.overrides > 0 && Flat_tbl.mem t.leak_tbl node then true
  else if not t.custom then Gao_rexford.exportable ~cls ~to_role:role
  else
    export_allowed ~cls ~role
      (verdict t ~dir:1 ~node ~peer ~role ~dest ~cls ~len ~path)

let learn t best ~node ~peer ~role ~dest ~neighbor_class ~len ~tail =
  let cls = Gao_rexford.class_of_learned ~neighbor_role:role ~neighbor_class in
  let len = len + 1 in
  let pref =
    if t.custom then
      import_eval t ~node ~peer ~role ~dest ~cls ~len ~path:(node :: tail)
    else 0
  in
  pref >= 0
  && Gao_rexford.offer best ~pref ~cls ~len ~next_hop:peer
       ~via_sibling:(role = Relationship.Sibling)

let extend t best ~node ~peer ~role ~dest ~neighbor_class ~len ~tail =
  export_ok t ~node:peer ~peer:node ~role:(Relationship.invert role) ~dest
    ~cls:neighbor_class ~len ~path:tail
  && learn t best ~node ~peer ~role ~dest ~neighbor_class ~len ~tail

let cited v = match v lsr line_shift with 0 -> None | l -> Some l

let explain_import t ~node ~peer ~role ~dest ~cls ~len ~path =
  let v = verdict t ~dir:0 ~node ~peer ~role ~dest ~cls ~len ~path in
  (import_pref v, cited v)

let explain_export t ~node ~peer ~role ~dest ~cls ~len ~path =
  let v = verdict t ~dir:1 ~node ~peer ~role ~dest ~cls ~len ~path in
  ( export_allowed v ~cls ~role,
    if v land fell_off <> 0 then None else cited v )

let origins t ~node =
  let static =
    match Hashtbl.find_opt t.origins_by_node node with Some l -> l | None -> []
  in
  let claimed =
    match Hashtbl.find_opt t.claims_by_node node with Some l -> l | None -> []
  in
  match claimed with
  | [] -> static
  | _ -> List.sort_uniq compare (static @ claimed)

let claims_origin t ~node ~dest =
  (t.overrides > 0 && Flat_tbl.mem t.claims_tbl (pack_node_dest node dest))
  || (t.custom && Flat_tbl.mem t.origins_tbl (pack_node_dest node dest))

let offer_claim t best ~node ~dest =
  node <> dest
  && claims_origin t ~node ~dest
  && Gao_rexford.offer best ~pref:0 ~cls:Gao_rexford.Origin ~len:1
       ~next_hop:dest ~via_sibling:false

let corrupted t ~node = t.overrides > 0 && Flat_tbl.mem t.corrupt_tbl node

(* ------------------------------------------------------------------ *)
(* Overrides                                                          *)
(* ------------------------------------------------------------------ *)

let toggle t tbl key on =
  let present = Flat_tbl.mem tbl key in
  if on && not present then begin
    Flat_tbl.set tbl key 1;
    t.overrides <- t.overrides + 1
  end
  else if (not on) && present then begin
    Flat_tbl.remove tbl key;
    t.overrides <- t.overrides - 1
  end

let set_leak t ~node on = toggle t t.leak_tbl node on

let set_corrupt t ~node on = toggle t t.corrupt_tbl node on

let set_claim t ~node ~dest on =
  let key = pack_node_dest node dest in
  let present = Flat_tbl.mem t.claims_tbl key in
  if on && not present then begin
    Flat_tbl.set t.claims_tbl key 1;
    t.overrides <- t.overrides + 1;
    let cur =
      match Hashtbl.find_opt t.claims_by_node node with Some l -> l | None -> []
    in
    Hashtbl.replace t.claims_by_node node (List.sort_uniq compare (dest :: cur))
  end
  else if (not on) && present then begin
    Flat_tbl.remove t.claims_tbl key;
    t.overrides <- t.overrides - 1;
    match Hashtbl.find_opt t.claims_by_node node with
    | None -> ()
    | Some l -> (
        match List.filter (fun d -> d <> dest) l with
        | [] -> Hashtbl.remove t.claims_by_node node
        | l -> Hashtbl.replace t.claims_by_node node l)
  end

let note_reject t = t.rejected <- t.rejected + 1
let rejects t = t.rejected
let reset_rejects t = t.rejected <- 0
