(** Summary statistics for experiment reporting.

    The experiment harness reports distributions (convergence times, message
    counts) the same way the paper's figures do: CDFs, percentiles and
    means. All functions are total over their documented domains and leave
    their input untouched. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive samples; [nan] on an empty array.
    Raises [Invalid_argument] on non-positive samples. *)

val variance : float array -> float
(** Population variance; [nan] on an empty array. *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in \[0, 100\], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array or [p]
    out of range. *)

val median : float array -> float

type cdf = (float * float) array
(** Sorted [(value, cumulative_fraction)] points; fractions end at 1.0. *)

val cdf : float array -> cdf
(** Empirical CDF of the samples. *)

val cdf_at : cdf -> float -> float
(** [cdf_at c v] is the fraction of samples [<= v]. *)

val fraction_below : float array -> float array -> float
(** [fraction_below a b] with [a] and [b] paired samples of equal length:
    the fraction of indices where [a.(i) < b.(i)]. Used for the paper's
    "Centaur beats OSPF in 82% of the cases" style of claims. Raises
    [Invalid_argument] on length mismatch or empty input. *)

type histogram = { bounds : float array; counts : int array }
(** [counts.(i)] is the number of samples in
    [bounds.(i), bounds.(i+1)); the last bucket is closed. *)

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram. Raises [Invalid_argument] if [bins <= 0] or the
    input is empty. *)

val summary_line : string -> float array -> string
(** One-line [label: n=... mean=... p50=... p90=... p99=... max=...]
    rendering for logs and experiment output. *)
