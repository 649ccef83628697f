(** Seeded synthetic update streams: the replayable churn workload.

    A stream is a time-ordered array of control-plane updates — link
    flips, policy override flips, loss-window edges — generated from a
    single integer seed, so a workload is named by [(topology, seed,
    rate, duration)] and every consumer (the replay driver, the
    churnrate experiment, the [simulate --stream] CLI mode) sees exactly
    the same events. Arrivals are a Poisson process at [rate] events/ms;
    each arrival picks a free resource and schedules a paired restore
    (link back up, override off, loss window closed) after an
    exponential hold, so per-resource sequences strictly alternate and
    every generated transition is real. Restores trail the arrival
    window: a stream of [duration] D may carry events past D. *)

type event = Faults.Scenario.event
(** Each generated event carries a one-entry group:
    [Set_links \[ (link, up) \]], [Set_loss \[ (link, rate) \]] or
    [Set_policy \[ change \]]. *)

type t = {
  seed : int;
  rate : float;      (** offered load, arrivals per ms *)
  duration : float;  (** arrival window, ms *)
  events : event array;  (** sorted by [at]; equal times keep
                             generation order *)
}

val generate :
  seed:int ->
  rate:float ->
  duration:float ->
  ?flap_hold:float ->
  ?policy_share:float ->
  ?loss_share:float ->
  Topology.t ->
  t
(** [flap_hold] (default 15 ms) is the mean outage/override/loss-window
    length — against a batching window [w], the probability that a flap
    cancels inside one wave scales with [w /. flap_hold].
    [policy_share]/[loss_share] (defaults 0) split arrivals between
    policy flips and loss edges, the rest are link flaps; a loss window
    drops each delivery with probability 0.2. Raises [Invalid_argument]
    on a rate or duration that is not finite and positive, on more than
    10{^6} expected arrivals ([rate *. duration]; a stream is held in
    memory whole), on shares that exceed 1, or on a linkless
    topology. *)

val events : t -> event array

val num_events : t -> int
