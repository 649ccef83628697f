(** Adversarial containment: route-leak / prefix-hijack /
    Permission-List-misconfiguration scenarios, Centaur vs BGP.

    Both protocols run the same compiled default Gao–Rexford policy on
    the same caida-like topology (capped at 300 nodes — Centaur's
    Permission-List cold start grows superlinearly, and the containment
    story is about propagation radius, not absolute scale). Mid-run, one
    node's policy overrides flip on ({!Faults.Scenario} adversarial
    faults) and later heal; the experiment records how many RIB
    selections the lie poisoned, how far from the adversary the damage
    travelled (BFS hop radius), how many probed pairs went dark, whether
    the policy verifier raised an alarm, and whether any damage survived
    the repair. *)

type kind = Route_leak | Prefix_hijack | Plist_misconfig

type row = {
  kind : kind;
  protocol : string;
  radius : int;          (** max adversary→poisoned-node hop distance; 0 = contained *)
  poisoned : int;        (** (node, dest) selections poisoned mid-fault *)
  dark_pairs : int;      (** probed pairs blackholed/looped mid-fault *)
  detect_ms : float option;
      (** first sample with verifier rejects > 0; [None] = never noticed *)
  residual : int;        (** poisoned selections after heal + quiescence *)
  availability : float;
  unavailable_ms : float;
  messages : int;
}

type result = {
  nodes : int;
  pairs : int;
  horizon : float;
  rows : row list;  (** kind-major, centaur before bgp *)
}

val run : Config.t -> result
(** Deterministic: equal configs give equal results; the work items fan
    out over the domain pool with index-ordered collection, so the
    result is independent of [CENTAUR_DOMAINS]. *)

val render : result -> string
