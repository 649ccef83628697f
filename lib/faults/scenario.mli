(** Fault-scenario DSL.

    A scenario is a typed, seeded schedule of faults — link flaps, node
    crash/restart, shared-risk link groups, maintenance windows and
    lossy-link intervals — compiled into a deterministic timeline of
    timed state changes that {!Injector.drive} replays against any
    protocol runner. Equal scenarios compile to equal timelines; all
    randomness is confined to {!random_churn}'s explicit seed. *)

type fault =
  | Link_flap of { link_id : int; at : float; duration : float }
      (** One link down at [at], back up [duration] later. *)
  | Node_outage of { node : int; at : float; duration : float }
      (** Crash/restart: every link adjacent to the node (up or down) is
          cut atomically at [at] and restored atomically at
          [at +. duration]. *)
  | Srlg_cut of { links : int list; at : float; duration : float }
      (** Shared-risk link group: the listed links share fate — cut and
          restored atomically. *)
  | Maintenance of { links : int list; at : float; stagger : float;
                     hold : float }
      (** Graceful maintenance window: links go down one at a time,
          [stagger] apart, each held down for [hold] then restored. *)
  | Lossy_link of { link_id : int; rate : float; from_t : float;
                    until_t : float }
      (** The link delivers each message with probability [1 - rate]
          during the window (drawn from the engine's seeded loss
          stream). *)
  | Route_leak of { node : int; at : float; duration : float }
      (** Adversarial: the node's export filter opens completely for the
          window — peer and provider routes are re-announced to every
          session, the classic customer-route leak. *)
  | Prefix_hijack of { node : int; victim : int; at : float;
                       duration : float }
      (** Adversarial: the node claims to originate [victim]'s prefix
          for the window. [node] and [victim] must differ. *)
  | Plist_misconfig of { node : int; at : float; duration : float }
      (** Adversarial (Centaur-specific): the node's outgoing Permission
          Lists are damaged for the window; protocols without Permission
          Lists ignore it. *)

type t = {
  name : string;
  seed : int;           (** seeds the engine's loss stream *)
  horizon : float;      (** observation end, ms *)
  sample_every : float; (** observer probing period, ms *)
  faults : fault list;
}

(** A policy-override flip, expressed over plain ints so this layer
    carries no policy types; {!Delta_wave.apply} maps each onto the
    corresponding {!Policy} setter and pokes the node it names. *)
type policy_change =
  | Leak of { node : int; on : bool }
  | Claim of { node : int; dest : int; on : bool }
  | Corrupt of { node : int; on : bool }

(** The one vocabulary of external control-plane changes: compiled
    fault timelines, synthetic update streams ([Stream.Update_stream])
    and the containment experiment all speak it, {!Injector.drive}
    steps them all and {!Delta_wave} is its one applier. *)
type change =
  | Set_links of (int * bool) list  (** atomic group of link flips *)
  | Set_loss of (int * float) list  (** per-link loss-rate updates *)
  | Set_policy of policy_change list  (** atomic group of override flips *)

type event = { at : float; change : change }
(** A change and its time, ms. *)

val compile : Topology.t -> t -> event list
(** Expand the faults into a timeline sorted by time (ties broken by the
    faults' declaration order; a group's flips stay in one atomic
    {!Set_links}). Raises [Invalid_argument] on out-of-range ids,
    negative times or durations, loss rates outside \[0, 1\], or
    non-positive [horizon]/[sample_every]. *)

val disrupts : change -> bool
(** Does the change take at least one link down or switch a policy
    override {e on} (the disruptive edges)? *)

val sample_times : t -> float list
(** The observer's sample grid: 0, [sample_every], 2·[sample_every], …
    up to [horizon], each time the previous one plus [sample_every]. *)

val adjacent_links : Topology.t -> int -> int list
(** All links touching a node regardless of up/down state, ascending. *)

val random_churn :
  seed:int ->
  horizon:float ->
  sample_every:float ->
  ?flaps:int ->
  Topology.t ->
  t
(** Seeded churn schedule: [flaps] link flaps (default 6) with
    exponential outage durations, one node outage and one two-link SRLG
    cut (on topologies with at least 4 nodes and links), and one
    lossy-link window at loss rate 0.3. All event times fall in the
    first 60% of the horizon so the tail of the run observes
    convergence. Equal seeds yield equal scenarios. *)
