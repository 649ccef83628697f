(* Reference policy interpreter: evaluates a configuration straight from
   its AST, resolving the chain by scanning the clauses on every call.
   It shares no code with [Policy]'s compiled chain walk, which the
   policy-DSL properties check against it. Overrides and origination
   are not consulted: this is the pure configured policy. *)

open Policy

let rec holds ~tags ~dest ~cls ~len ~path = function
  | Any -> true
  | Dest_in ds -> List.mem dest ds
  | Class_in cs -> List.mem cls cs
  | Path_through x -> List.mem x path
  | Longer_than k -> len > k
  | Has_tag b -> tags land (1 lsl b) <> 0
  | Not p -> not (holds ~tags ~dest ~cls ~len ~path p)
  | And (p, q) ->
    holds ~tags ~dest ~cls ~len ~path p && holds ~tags ~dest ~cls ~len ~path q
  | Or (p, q) ->
    holds ~tags ~dest ~cls ~len ~path p || holds ~tags ~dest ~cls ~len ~path q

(* The rules [node] runs for [peer] in direction [dir]: every [any]
   clause, plus the [neighbor peer] clauses when there are any and the
   clauses for [role] otherwise, in declaration order. *)
let chain_rules config ~node ~dir ~peer ~role =
  match List.find_opt (fun np -> np.node = node) config with
  | None -> []
  | Some np ->
    let filters =
      List.filter_map
        (function
          | Filter f when f.dir = dir -> Some (f.sel, f.rules)
          | Filter _ | Originate _ -> None)
        np.clauses
    in
    let explicit = List.exists (fun (sel, _) -> sel = Peer peer) filters in
    List.concat_map
      (fun (sel, rules) ->
        match sel with
        | Any_peer -> rules
        | Peer p -> if explicit && p = peer then rules else []
        | With_role r -> if (not explicit) && r = role then rules else [])
      filters

type outcome =
  | Permitted of int  (* the accumulated preference *)
  | Denied
  | Fell_off of int   (* no terminal action ran; the accumulated preference *)

(* Runs the chain, returning its outcome with the source line of the
   deciding rule: for a deny, the denying rule; otherwise the rule that
   last set the preference, or failing that the permitting rule. Rules
   with line 0 cite nothing. *)
let run rules ~dest ~cls ~len ~path =
  let cite l fallback = if l > 0 then Some l else fallback in
  let rec rules_loop pref pline tags = function
    | [] -> (Fell_off pref, pline)
    | r :: rest ->
      if holds ~tags ~dest ~cls ~len ~path r.guard then
        let rec acts pref pline tags = function
          | [] -> rules_loop pref pline tags rest
          | Permit :: _ ->
            ( Permitted pref,
              match pline with Some _ -> pline | None -> cite r.line None )
          | Deny :: _ -> (Denied, cite r.line None)
          | Pref v :: tl -> acts v (cite r.line pline) tags tl
          | Set_tag b :: tl -> acts pref pline (tags lor (1 lsl b)) tl
          | Clear_tag b :: tl ->
            acts pref pline (tags land lnot (1 lsl b)) tl
        in
        acts pref pline tags r.actions
      else rules_loop pref pline tags rest
  in
  rules_loop 0 None 0 rules

let explain_import config ~node ~peer ~role ~dest ~cls ~len ~path =
  let rules = chain_rules config ~node ~dir:Import ~peer ~role in
  match run rules ~dest ~cls ~len ~path with
  | Denied, line -> (-1, line)
  | (Permitted pref | Fell_off pref), line -> (pref, line)

let explain_export config ~node ~peer ~role ~dest ~cls ~len ~path =
  let rules = chain_rules config ~node ~dir:Export ~peer ~role in
  match run rules ~dest ~cls ~len ~path with
  | Denied, line -> (false, line)
  | Permitted _, line -> (true, line)
  | Fell_off _, _ -> (Gao_rexford.exportable ~cls ~to_role:role, None)
