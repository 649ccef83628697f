(* Policy DSL: AST, parser, validator, and a compiler lowering filter
   chains to flat 4-word bytecode with jump-threaded short-circuit
   evaluation. See policy.mli for the language definition. *)

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

let check_node_id num_nodes what id =
  if id < 0 then inv "negative %s id %d" what id;
  match num_nodes with
  | Some n when id >= n ->
      inv "%s %d out of range (topology has %d nodes)" what id n
  | _ -> ()

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

(* Instructions are 4 ints: [op; arg; x; y]. Tests jump to x on true, y
   on false; JMP goes to x; action ops fall through to pc + 4; PERMIT /
   DENY / DEFAULT halt. During emission x/y hold label ids, resolved to
   word positions in one rewrite pass. *)

let op_jmp = 0
let op_dest = 1
let op_class = 2
let op_through = 3
let op_longer = 4
let op_tag = 5
let op_pref = 10
let op_stag = 11
let op_ctag = 12
let op_permit = 13
let op_deny = 14
let op_default = 15

(* [exec] result meaning "fall back to the built-in default". Distinct
   from any pref (0..65535) and from the -1 deny marker. *)
let res_default = min_int

type asm = {
  mutable code : int array;
  mutable len : int;
  mutable labels : int array;
  mutable nlabels : int;
  mutable sets : Bytes.t list;   (* reversed *)
  mutable nsets : int;
}

let asm_create () =
  { code = Array.make 256 0; len = 0;
    labels = Array.make 64 (-1); nlabels = 0;
    sets = []; nsets = 0 }

let new_label a =
  if a.nlabels = Array.length a.labels then begin
    let grown = Array.make (2 * a.nlabels) (-1) in
    Array.blit a.labels 0 grown 0 a.nlabels;
    a.labels <- grown
  end;
  let l = a.nlabels in
  a.nlabels <- l + 1;
  l

let place a l = a.labels.(l) <- a.len

let emit a op arg x y =
  if a.len + 4 > Array.length a.code then begin
    let grown = Array.make (2 * Array.length a.code) 0 in
    Array.blit a.code 0 grown 0 a.len;
    a.code <- grown
  end;
  a.code.(a.len) <- op;
  a.code.(a.len + 1) <- arg;
  a.code.(a.len + 2) <- x;
  a.code.(a.len + 3) <- y;
  a.len <- a.len + 4

let intern_set a dests =
  let max_d = List.fold_left max 0 dests in
  let bs = Bytes.make ((max_d lsr 3) + 1) '\000' in
  List.iter
    (fun d ->
      Bytes.set bs (d lsr 3)
        (Char.chr (Char.code (Bytes.get bs (d lsr 3)) lor (1 lsl (d land 7)))))
    dests;
  let idx = a.nsets in
  a.sets <- bs :: a.sets;
  a.nsets <- idx + 1;
  idx

let class_mask classes =
  List.fold_left
    (fun m c -> m lor (1 lsl Gao_rexford.class_rank c))
    0 classes

let rec compile_pred a p ~t ~f =
  match p with
  | Any -> emit a op_jmp 0 t t
  | Dest_in ds -> emit a op_dest (intern_set a ds) t f
  | Class_in cs -> emit a op_class (class_mask cs) t f
  | Path_through x -> emit a op_through x t f
  | Longer_than k -> emit a op_longer k t f
  | Has_tag b -> emit a op_tag b t f
  | Not p -> compile_pred a p ~t:f ~f:t
  | And (p, q) ->
      let mid = new_label a in
      compile_pred a p ~t:mid ~f;
      place a mid;
      compile_pred a q ~t ~f
  | Or (p, q) ->
      let mid = new_label a in
      compile_pred a p ~t ~f:mid;
      place a mid;
      compile_pred a q ~t ~f

let compile_chain a rules =
  let entry = a.len in
  List.iter
    (fun r ->
      let body = new_label a and next = new_label a in
      compile_pred a r.guard ~t:body ~f:next;
      place a body;
      List.iter
        (fun act ->
          match act with
          | Pref v -> emit a op_pref v 0 0
          | Set_tag b -> emit a op_stag b 0 0
          | Clear_tag b -> emit a op_ctag b 0 0
          | Permit -> emit a op_permit 0 0 0
          | Deny -> emit a op_deny 0 0 0)
        r.actions;
      (match List.rev r.actions with
       | last :: _ when is_terminal last -> ()
       | _ -> emit a op_jmp 0 next next);
      place a next)
    rules;
  emit a op_default 0 0 0;
  entry

let resolve a =
  let code = Array.sub a.code 0 a.len in
  let pc = ref 0 in
  while !pc < a.len do
    if code.(!pc) <= op_tag then begin
      code.(!pc + 2) <- a.labels.(code.(!pc + 2));
      code.(!pc + 3) <- a.labels.(code.(!pc + 3))
    end;
    pc := !pc + 4
  done;
  code

let dir_code = function Import -> 0 | Export -> 1

let role_code = function
  | Relationship.Customer -> 0
  | Relationship.Provider -> 1
  | Relationship.Peer -> 2
  | Relationship.Sibling -> 3

let pack_node_dest node dest = (node lsl 31) lor dest

type compiled = {
  source : config;        (* the AST this was lowered from; [] for default *)
  code : int array;
  dest_sets : Bytes.t array;
  by_role : Flat_tbl.t;   (* (node lsl 3) | (dir lsl 2) | role -> entry *)
  by_peer : Flat_tbl.t;   (* ((node lsl 31 | peer) lsl 1) | dir -> entry *)
  origins_tbl : Flat_tbl.t;           (* packed (node, dest) -> 1 *)
  origins_by_node : (int, int list) Hashtbl.t;
  custom : bool;
  num_chains : int;
  num_stanzas : int;
  (* scenario override state *)
  leak_tbl : Flat_tbl.t;
  corrupt_tbl : Flat_tbl.t;
  claims_tbl : Flat_tbl.t;            (* packed (node, dest) -> 1 *)
  claims_by_node : (int, int list) Hashtbl.t;
  mutable overrides : int;            (* active override count *)
  mutable rejected : int;
}

let lower config =
  let a = asm_create () in
  let by_role = Flat_tbl.create () in
  let by_peer = Flat_tbl.create () in
  let origins_tbl = Flat_tbl.create () in
  let origins_by_node = Hashtbl.create 16 in
  let num_chains = ref 0 in
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
                | Filter f when f.dir = dir -> Some (f.sel, f.rules)
                | _ -> None)
              np.clauses
          in
          if filters <> [] then begin
            (* Role-keyed chains: every role clause for that role plus
               the [any] clauses, in declaration order. *)
            List.iter
              (fun role ->
                let rules =
                  List.concat_map
                    (fun (sel, rules) ->
                      match sel with
                      | Any_peer -> rules
                      | With_role r when r = role -> rules
                      | _ -> [])
                    filters
                in
                let entry = compile_chain a rules in
                incr num_chains;
                Flat_tbl.set by_role
                  ((np.node lsl 3) lor (dc lsl 2) lor role_code role)
                  entry)
              Relationship.all;
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
                let rules =
                  List.concat_map
                    (fun (sel, rules) ->
                      match sel with
                      | Any_peer -> rules
                      | Peer q when q = p -> rules
                      | _ -> [])
                    filters
                in
                let entry = compile_chain a rules in
                incr num_chains;
                Flat_tbl.set by_peer
                  (((pack_node_dest np.node p) lsl 1) lor dc)
                  entry)
              peers
          end)
        [ Import; Export ])
    config;
  { source = config;
    code = resolve a;
    dest_sets = Array.of_list (List.rev a.sets);
    by_role; by_peer; origins_tbl; origins_by_node;
    custom = config <> [];
    num_chains = !num_chains;
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
  Printf.sprintf
    "policy: %d node stanza%s, %d compiled chain%s, %d code words, %d dest set%s"
    t.num_stanzas (if t.num_stanzas = 1 then "" else "s")
    t.num_chains (if t.num_chains = 1 then "" else "s")
    (Array.length t.code)
    (Array.length t.dest_sets) (if Array.length t.dest_sets = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let rec path_through path x =
  match path with [] -> false | y :: tl -> y = x || path_through tl x

(* Returns -1 (deny), [res_default] (fall back), or the accumulated
   preference (accept/permit). Tail-recursive over int state only. *)
let exec t pc0 ~export ~dest ~cls_rank ~len ~path =
  let code = t.code in
  let rec step pc pref tags =
    let op = Array.unsafe_get code pc in
    if op = op_jmp then step (Array.unsafe_get code (pc + 2)) pref tags
    else if op <= op_tag then begin
      let arg = Array.unsafe_get code (pc + 1) in
      let hit =
        if op = op_dest then begin
          let s = Array.unsafe_get t.dest_sets arg in
          dest lsr 3 < Bytes.length s
          && Char.code (Bytes.unsafe_get s (dest lsr 3)) land (1 lsl (dest land 7))
             <> 0
        end
        else if op = op_class then arg land (1 lsl cls_rank) <> 0
        else if op = op_through then path_through path arg
        else if op = op_longer then len > arg
        else (* op_tag *) tags land (1 lsl arg) <> 0
      in
      step (Array.unsafe_get code (pc + (if hit then 2 else 3))) pref tags
    end
    else if op = op_pref then step (pc + 4) (Array.unsafe_get code (pc + 1)) tags
    else if op = op_stag then
      step (pc + 4) pref (tags lor (1 lsl Array.unsafe_get code (pc + 1)))
    else if op = op_ctag then
      step (pc + 4) pref (tags land lnot (1 lsl Array.unsafe_get code (pc + 1)))
    else if op = op_permit then pref
    else if op = op_deny then -1
    else (* op_default *) if export then res_default else pref
  in
  step pc0 0 0

let chain_entry t ~dir ~node ~peer ~role =
  match
    Flat_tbl.find_opt t.by_peer (((pack_node_dest node peer) lsl 1) lor dir)
  with
  | Some e -> e
  | None ->
      Flat_tbl.find_default t.by_role
        ((node lsl 3) lor (dir lsl 2) lor role_code role)
        ~default:(-1)

let import_eval t ~node ~peer ~role ~dest ~cls ~len ~path =
  if not t.custom then 0
  else
    match chain_entry t ~dir:0 ~node ~peer ~role with
    | -1 -> 0
    | entry ->
        let r =
          exec t entry ~export:false ~dest
            ~cls_rank:(Gao_rexford.class_rank cls) ~len ~path
        in
        if r = res_default then 0 else r

let export_ok t ~node ~peer ~role ~dest ~cls ~len ~path =
  if t.overrides > 0 && Flat_tbl.mem t.leak_tbl node then true
  else if not t.custom then Gao_rexford.exportable ~cls ~to_role:role
  else
    match chain_entry t ~dir:1 ~node ~peer ~role with
    | -1 -> Gao_rexford.exportable ~cls ~to_role:role
    | entry ->
        let r =
          exec t entry ~export:true ~dest
            ~cls_rank:(Gao_rexford.class_rank cls) ~len ~path
        in
        if r = res_default then Gao_rexford.exportable ~cls ~to_role:role
        else r >= 0

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

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                              *)
(* ------------------------------------------------------------------ *)

let rec eval_pred ~tags ~dest ~cls ~len ~path = function
  | Any -> true
  | Dest_in ds -> List.mem dest ds
  | Class_in cs -> List.mem cls cs
  | Path_through x -> path_through path x
  | Longer_than k -> len > k
  | Has_tag b -> tags land (1 lsl b) <> 0
  | Not p -> not (eval_pred ~tags ~dest ~cls ~len ~path p)
  | And (p, q) ->
      eval_pred ~tags ~dest ~cls ~len ~path p
      && eval_pred ~tags ~dest ~cls ~len ~path q
  | Or (p, q) ->
      eval_pred ~tags ~dest ~cls ~len ~path p
      || eval_pred ~tags ~dest ~cls ~len ~path q

(* Chain resolution by configuration scan, mirroring the compiler's
   clause-selection rules. *)
let chain_rules config ~node ~dir ~peer ~role =
  match List.find_opt (fun np -> np.node = node) config with
  | None -> []
  | Some np ->
      let filters =
        List.filter_map
          (function
            | Filter f when f.dir = dir -> Some (f.sel, f.rules)
            | _ -> None)
          np.clauses
      in
      let explicit =
        List.exists (fun (sel, _) -> sel = Peer peer) filters
      in
      List.concat_map
        (fun (sel, rules) ->
          match sel with
          | Any_peer -> rules
          | Peer p -> if explicit && p = peer then rules else []
          | With_role r -> if (not explicit) && r = role then rules else [])
        filters

(* Runs one chain over the AST, returning what [exec] would (-1,
   [res_default] or the accumulated preference) together with the
   1-based source line of the deciding rule: for a terminating Deny, the
   denying rule; for a Permit or an import fall-through, the rule that
   last set the preference (falling back to the permitting rule itself).
   Builder-made rules carry line 0 and report [None]. *)
let eval_chain_explain rules ~export ~dest ~cls ~len ~path =
  let opt_line l fallback = if l > 0 then Some l else fallback in
  let rec rules_loop pref pline tags = function
    | [] -> ((if export then res_default else pref), pline)
    | r :: rest ->
        if eval_pred ~tags ~dest ~cls ~len ~path r.guard then
          let rec acts pref pline tags = function
            | [] -> rules_loop pref pline tags rest
            | Permit :: _ ->
                (pref, (match pline with Some _ -> pline | None -> opt_line r.line None))
            | Deny :: _ -> (-1, opt_line r.line None)
            | Pref v :: tl -> acts v (opt_line r.line pline) tags tl
            | Set_tag b :: tl -> acts pref pline (tags lor (1 lsl b)) tl
            | Clear_tag b :: tl ->
                acts pref pline (tags land lnot (1 lsl b)) tl
          in
          acts pref pline tags r.actions
        else rules_loop pref pline tags rest
  in
  rules_loop 0 None 0 rules

let explain_import config ~node ~peer ~role ~dest ~cls ~len ~path =
  match chain_rules config ~node ~dir:Import ~peer ~role with
  | [] -> (0, None)
  | rules ->
      let r, ln = eval_chain_explain rules ~export:false ~dest ~cls ~len ~path in
      if r = res_default then (0, None) else (r, ln)

let explain_export config ~node ~peer ~role ~dest ~cls ~len ~path =
  match chain_rules config ~node ~dir:Export ~peer ~role with
  | [] -> (Gao_rexford.exportable ~cls ~to_role:role, None)
  | rules ->
      let r, ln = eval_chain_explain rules ~export:true ~dest ~cls ~len ~path in
      if r = res_default then (Gao_rexford.exportable ~cls ~to_role:role, None)
      else (r >= 0, ln)
