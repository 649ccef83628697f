(** Summary statistics for experiment reporting.

    The experiment harness reports distributions (convergence times, message
    counts) the way the paper's figures do: percentiles (the points of a
    CDF), medians and means. All functions are total over their documented
    domains and leave their input untouched. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in \[0, 100\], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array or [p]
    out of range. *)

val median : float array -> float

val fraction_below : float array -> float array -> float
(** [fraction_below a b] with [a] and [b] paired samples of equal length:
    the fraction of indices where [a.(i) < b.(i)]. Used for the paper's
    "Centaur beats OSPF in 82% of the cases" style of claims. Raises
    [Invalid_argument] on length mismatch or empty input. *)
