(** A small policy language compiled to resolved filter chains.

    The repo's other modules encode exactly one policy — the Gao–Rexford
    conditions of {!Gao_rexford} — as hard-coded calls. This module turns
    policy into {e data}: per-neighbor import/export filter chains with
    predicates over destination sets, route class, path contents and
    community-style tags, plus local-pref ranking overrides and static
    origination. A configuration can be written textually (see the
    grammar below), assembled programmatically with the builder
    functions, validated, and {e compiled}: every (node, direction,
    role) and (node, direction, neighbor) chain is resolved once into an
    array of rules, each guard lowers to a small test tree (destination
    sets become packed bitsets, class sets bit masks), and chains are
    found through int-keyed {!Flat_tbl}s. One chain walk evaluates them
    all: it answers the protocol nets' {!import_eval}/{!export_ok} and the
    analyzer's {!explain_import}/{!explain_export}, and it allocates
    nothing.

    The {e empty} configuration compiles to the default policy, which is
    Gao–Rexford exactly: [import_eval] returns preference 0 for every
    route and [export_ok] defers to {!Gao_rexford.exportable}. The
    equivalence is enforced by test — wiring compiled policies through
    the protocol nets and the static solver must be byte-invisible until
    a configuration actually says something.

    {2 Grammar}

    {v
config  := stanza*
stanza  := "node" INT "{" item* "}"
item    := "originate" INT+
         | "import" "from" sel "{" rule* "}"
         | "export" "to" sel "{" rule* "}"
sel     := "any" | "customer" | "provider" | "peer" | "sibling"
         | "neighbor" INT
rule    := ("match" pred | "default") "->" action+
pred    := pred "or" pred | pred "and" pred | "not" pred | "(" pred ")"
         | "any"
         | "dest" "in" "{" (INT | INT ".." INT)* "}"
         | "class" "in" "{" ("origin"|"customer"|"peer"|"provider")+ "}"
         | "path" "through" INT
         | "longer" "than" INT
         | "tag" INT
action  := "permit" | "deny" | "pref" INT | "tag" INT | "untag" INT
    v}

    [#] starts a comment running to end of line. [not] binds tighter
    than [and], which binds tighter than [or].

    {2 Semantics}

    Rules in a chain run first-match-wins, top to bottom. A matching
    rule applies its actions in order: [pref]/[tag]/[untag] update the
    evaluation state and {e fall through} to the next rule unless a
    terminal [permit] or [deny] ends the list. Falling off the end of a
    chain hits the built-in default: imports accept with the accumulated
    preference, exports defer to the Gao–Rexford export rule. Tags are
    scratch state local to a single chain evaluation — they never go on
    the wire.

    Chain selection: a [neighbor N] clause makes the chain for peer [N]
    the concatenation of every [neighbor N] and [any] clause in
    declaration order, {e replacing} the role-keyed clauses for that
    peer; otherwise the chain is every matching role clause plus [any]
    clauses, in declaration order.

    Import preference ranks {e above} the Gao–Rexford order: candidates
    compare by descending preference first, then class / length /
    next-hop as usual (see {!Gao_rexford.compare_routes}).

    A custom {e export permit} authorizes routes the Gao–Rexford
    contract would not — that is the point: it is how the containment
    experiments express a route leak at the offending node while every
    {e other} node keeps verifying announcements against the baseline
    contract. *)

(** {1 Abstract syntax} *)

type pred =
  | Any
  | Dest_in of int list           (** destination in the given set *)
  | Class_in of Gao_rexford.route_class list
  | Path_through of int           (** path traverses the given node *)
  | Longer_than of int            (** AS-path length strictly greater *)
  | Has_tag of int                (** scratch tag bit set, 0..62 *)
  | Not of pred
  | And of pred * pred
  | Or of pred * pred

type action =
  | Permit                        (** terminal: accept / allow export *)
  | Deny                          (** terminal: reject / block export *)
  | Pref of int                   (** set local preference, 0..65535 *)
  | Set_tag of int
  | Clear_tag of int

type rule = { guard : pred; actions : action list; line : int }
(** [line] is the 1-based source line of the rule when it came from the
    parser, 0 when built programmatically — diagnostics (the convergence
    analyzer's dispute-wheel reports) cite it; evaluation ignores it. *)

type peer_sel =
  | Any_peer
  | With_role of Relationship.t
  | Peer of int                   (** one explicit neighbor id *)

type direction = Import | Export

type clause =
  | Filter of { dir : direction; sel : peer_sel; rules : rule list }
  | Originate of int list
      (** destinations this node claims to originate, in addition to its
          own id — the prefix-hijack primitive *)

type node_policy = { node : int; clauses : clause list }

type config = node_policy list

(** {1 Programmatic builder} *)

val rule : pred -> action list -> rule
(* Builder rules carry [line = 0] (no source position). *)
val import_from : peer_sel -> rule list -> clause
val export_to : peer_sel -> rule list -> clause
val originate : int list -> clause
val node : int -> clause list -> node_policy

(** {1 Parsing and validation} *)

val parse : string -> (config, string) result
(** Parse a textual configuration. Errors are stable, single-line,
    [policy: syntax error at line N: ...] — the parser corpus check in
    CI diffs them verbatim. *)

val parse_file : string -> (config, string) result

(** {1 Compilation} *)

type compiled
(** A validated configuration with its chains resolved and lowered,
    plus the mutable scenario-override state ({!set_leak} & co) and the
    rejected-announcement counter. The compiled tables are read-only
    after {!compile}; overrides and the counter are single-writer (the
    simulation loop). *)

val compile : ?num_nodes:int -> config -> (compiled, string) result
(** Validate, then lower. Validation checks node/destination ranges
    (0..2{^31}-1, and against [num_nodes] when given), duplicate
    stanzas, empty sets, pref/tag ranges, rules with no actions and
    unreachable rules after a terminal catch-all; the first violation in
    declaration order is reported. The empty configuration yields the
    default (pure Gao–Rexford) policy. *)

val compile_exn : ?num_nodes:int -> config -> compiled
(** Raises [Invalid_argument] with the validation message. *)

val default : unit -> compiled
(** The compiled empty configuration — plain Gao–Rexford. Each call
    returns a fresh value (override state is per-instance). *)

val is_default : compiled -> bool
(** No configuration and no active overrides: evaluation is guaranteed
    to coincide with hard-coded Gao–Rexford, so callers may keep their
    original fast paths. *)

val configured : compiled option -> compiled option
(** [None] for an absent or {!is_default} policy, the policy otherwise:
    the normalization the stable solver and static analysis share, so
    they take their policy-free paths on exactly the same inputs. *)

val source : compiled -> config
(** The configuration AST this value was compiled from ([[]] for
    {!default}) — the convergence analyzer's structural scan reads its
    clauses and selectors. *)

val overrides_active : compiled -> bool
(** Whether any scenario override (leak, corruption, claimed origin) is
    currently active. Overrides mutate evaluation behind the compiled
    configuration's back, so static certifications over {!source} do
    not cover them. *)

val summary : compiled -> string
(** One line: stanza/chain/destination-set counts, for [policy check]. *)

(** {1 Evaluation}

    {!import_eval} and {!export_ok} allocate nothing (a test pins it);
    safe to share one [compiled] across domains as long as overrides are
    not concurrently mutated. *)

val import_eval :
  compiled ->
  node:int -> peer:int -> role:Relationship.t ->
  dest:int -> cls:Gao_rexford.route_class -> len:int -> path:Path.t ->
  int
(** Local preference for a route offered to [node] by [peer] (whose
    relationship to [node] is [role]); [-1] to reject. [path] is the
    full path as seen at [node] (head = [node]), [len] its hop count.
    Default policy: 0. *)

val export_ok :
  compiled ->
  node:int -> peer:int -> role:Relationship.t ->
  dest:int -> cls:Gao_rexford.route_class -> len:int -> path:Path.t ->
  bool
(** May [node] announce the route to [peer]? [path] is the path at
    [node] (head = [node]). Default policy:
    [Gao_rexford.exportable ~cls ~to_role:role]. A node under a
    {!set_leak} override exports everything. *)

val learn :
  compiled -> Gao_rexford.best ->
  node:int -> peer:int -> role:Relationship.t -> dest:int ->
  neighbor_class:Gao_rexford.route_class -> len:int -> tail:Path.t ->
  bool
(** The one route-learning step: [node] learns [peer]'s route [tail]
    toward [dest] (head = [peer]), of class [neighbor_class] and [len]
    hops at [peer], where [role] is [peer]'s relationship to [node]. The
    route takes its class at [node] from
    {!Gao_rexford.class_of_learned}, one more hop, and the preference
    {!import_eval} grants; unless the import chain rejects it, it is
    offered to [best] with next hop [peer]. [true] when it takes the
    lead. The full path [node :: tail] is built only when a
    configuration is compiled in, so the default policy allocates
    nothing. The caller keeps loop detection; the exporter's consent
    comes first in {!extend}, and a protocol engine has had it at the
    sending node. *)

val extend :
  compiled -> Gao_rexford.best ->
  node:int -> peer:int -> role:Relationship.t -> dest:int ->
  neighbor_class:Gao_rexford.route_class -> len:int -> tail:Path.t ->
  bool
(** The one link step: [peer] exports its selected route [tail] to
    [node], then [node] learns it. The export is {!export_ok} at [peer]
    toward [node], at [neighbor_class], the class [peer] selected the
    route with; {!learn} follows with the same arguments. [true] when
    the route takes the lead. Allocates nothing under the default
    policy. The caller keeps loop detection. *)

val offer_claim :
  compiled -> Gao_rexford.best -> node:int -> dest:int -> bool
(** A claimed origination, when [node] claims [dest] ({!claims_origin},
    [dest <> node]): the route [[node; dest]] offered to [best] as
    preference 0, class [Origin], length 1, next hop [dest]. [true] when
    it takes the lead. *)

val origins : compiled -> node:int -> int list
(** Destinations [node] claims to originate beyond its own id — static
    [originate] clauses plus active {!set_claim} overrides. Sorted,
    duplicate-free. *)

val claims_origin : compiled -> node:int -> dest:int -> bool

val corrupted : compiled -> node:int -> bool
(** Is the node under a {!set_corrupt} override? Consulted by the
    Centaur net to damage outgoing Permission Lists. *)

(** {1 Scenario overrides}

    Mutable toggles the fault injector flips mid-run; they do not
    require recompiling. Each flip must be followed by the runner's
    policy poke so the protocol re-evaluates affected state. *)

val set_leak : compiled -> node:int -> bool -> unit
(** Route leak: while set, [export_ok] at [node] returns [true] for
    every route and peer. *)

val set_claim : compiled -> node:int -> dest:int -> bool -> unit
(** Prefix hijack: while set, [node] claims to originate [dest]. *)

val set_corrupt : compiled -> node:int -> bool -> unit
(** Permission-List misconfiguration marker; see {!corrupted}. *)

(** {1 Detection counter} *)

val note_reject : compiled -> unit
(** Record that a received announcement failed verification against the
    baseline contract — the containment experiment's time-to-detection
    signal. *)

val rejects : compiled -> int

val reset_rejects : compiled -> unit

(** {1 Provenance}

    The same chain walk, also reporting the source line of the deciding
    rule — the convergence analyzer cites it in a dispute wheel.
    Overrides are not consulted: this is the pure configured policy. *)

val explain_import :
  compiled ->
  node:int -> peer:int -> role:Relationship.t ->
  dest:int -> cls:Gao_rexford.route_class -> len:int -> path:Path.t ->
  int * int option
(** The local preference {!import_eval} grants ([-1] to reject), plus
    the source line of the deciding rule: the rule that last set the
    returned preference, or the terminating rule. [None] when the
    built-in default decided or the rule has no source position. *)

val explain_export :
  compiled ->
  node:int -> peer:int -> role:Relationship.t ->
  dest:int -> cls:Gao_rexford.route_class -> len:int -> path:Path.t ->
  bool * int option
(** The {!export_ok} verdict without overrides, plus the source line of
    the deciding rule (the permitting or denying rule; [None] when the
    Gao–Rexford default export rule decided). *)
