(** Structured, ring-buffered event traces.

    A trace is a bounded buffer of timestamped protocol/engine events —
    message sends, deliveries and losses, link flips, batch boundaries,
    per-node recompute spans, RIB deltas, timer activity — emitted by
    {!Sim.Engine} and the protocol nets when tracing is enabled.

    The subsystem is {e zero-cost when disabled}: every emission site
    guards on {!enabled}, which on the shared {!none} sink is a single
    immutable-field load and branch; no event value is ever allocated.
    A trace belongs to one engine (one domain), so pool-parallel sweeps
    give each runner its own instance and need no synchronization.

    When the buffer is full the oldest events are dropped (and counted);
    size the capacity to the run when the full prefix matters (the
    invariant checker degrades to local checks on truncated traces). *)

type event =
  | Link_state of { link_id : int; a : int; b : int; up : bool }
      (** Initial link-state snapshot at engine creation (only non-default
          states are recorded; links are up unless stated). *)
  | Link_flip of { link_id : int; a : int; b : int; up : bool }
      (** Ground-truth state change, endpoints included so replay can
          track per-session state without the topology. *)
  | Msg_send of { src : int; dst : int; link_id : int; units : int }
  | Msg_deliver of { src : int; dst : int; link_id : int }
  | Msg_loss of { src : int; dst : int; link_id : int; dead_link : bool }
      (** [dead_link]: lost because the link was down at delivery time
          or bounced (down then up) while the message was in flight —
          the session incarnation died — vs the probabilistic loss
          model. *)
  | Timer_set of { node : int; key : int; fire_at : float }
  | Timer_fire of { node : int; key : int }
  | Batch_begin of { node : int }
      (** Start of a same-(time, node) delivery burst (see
          {!Sim.Engine.handlers.on_batch_end}). *)
  | Batch_end of { node : int }
  | Mark_dirty of { node : int; dest : int }
      (** Absorb stage marked [dest] for recomputation at [node];
          [dest = -1] means "unspecified/bulk" (e.g. an OSPF link-state
          change invalidating a whole tree). *)
  | Recompute of { node : int; dirty : int; changed : int }
      (** One recompute span: [dirty] entries drained, [changed] selected
          routes actually moved. *)
  | Rib_change of { node : int; dest : int; withdrawn : bool }
      (** [node]'s selected route for [dest] changed. *)
  | Rib_out of
      { node : int; peer : int; dest : int; withdraw : bool; path_sig : int }
      (** Export-stage delta owed to [peer]: the advertisement for [dest]
          diverged from what was last sent ([path_sig] is a stable hash
          of the announced path; ignored on withdrawals). *)

type t

val none : t
(** The shared disabled sink: {!enabled} is false, {!emit} is a no-op.
    Default everywhere a trace is optional. *)

val create : ?capacity:int -> unit -> t
(** Fresh enabled trace (default capacity 65536 events). Raises
    [Invalid_argument] when [capacity < 1]. *)

val enabled : t -> bool

val set_now : t -> float -> unit
(** Set the timestamp applied by subsequent {!emit}s. The engine keeps
    this in sync with its clock so protocol code can emit without
    threading [now]. *)

val emit : t -> event -> unit
(** Append the event stamped with the time last given to {!set_now}.
    No-op on a disabled trace —
    but call sites on hot paths should still guard with {!enabled} so
    the event payload itself is never allocated. *)

val length : t -> int
(** Events currently buffered. *)

val dropped : t -> int
(** Events evicted because the buffer was full. *)

val clear : t -> unit
(** Forget all buffered events and the dropped count (keeps the time
    last given to {!set_now}). *)

val events : t -> (float * event) array
(** Buffered events, oldest first. *)

val pp_event : Format.formatter -> float * event -> unit
(** One-line human rendering, timestamp included. *)

val event_to_json : float * event -> string
(** One flat JSON object (no newline): [{"t":…,"ev":"msg_send",…}]. *)

val event_of_json : string -> (float * event) option
(** Parse a line produced by {!event_to_json}; [None] on malformed
    input. Round-trips exactly: formatting uses enough digits that
    [event_of_json (event_to_json e) = Some e]. *)

val write_jsonl : out_channel -> t -> unit
(** Buffered events as JSON Lines, oldest first. *)

val digest : t -> string
(** Normalized digest of the buffered events: per-kind counts followed
    by the full event sequence with every timestamp field removed
    (consecutive identical lines are run-length coalesced). Two runs
    that process the same events in the same order produce identical
    digests even when their absolute clocks differ — the
    baseline-diffable fingerprint used by the golden trace test and the
    CI determinism gate. *)

val digest_events : ?dropped:int -> (float * event) array -> string
(** {!digest} over an explicit event array (e.g. parsed back from a
    JSONL export); [dropped] (default 0) fills the header's dropped
    count. *)
