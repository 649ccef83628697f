(** Fixed pool of worker domains for deterministic data-parallel sweeps.

    The evaluation pipeline is thousands of independent per-destination
    (or per-source) computations; this pool fans them out across OCaml 5
    domains while keeping the results {e byte-identical} to a sequential
    run: work items are claimed dynamically but results are stored by
    index, so callers observe the same values in the same order
    regardless of scheduling.

    The pool is a process-wide singleton built lazily on first parallel
    call. Its size comes from the [CENTAUR_DOMAINS] environment variable
    (clamped to >= 1); when unset it defaults to
    [Domain.recommended_domain_count () - 1], with a minimum of 1. At
    size 1 every entry point takes the exact sequential code path — no
    domain is ever spawned, no atomic is touched.

    Nested parallel calls (a work item itself calling into the pool) run
    sequentially in the calling domain rather than deadlocking, so
    library code can use the pool without caring who its callers are.

    Worker domains are stdlib [Domain.t] values (no domainslib); they
    park on a condition variable between jobs and are joined by an
    [at_exit] hook. *)

val default_size : unit -> int
(** Pool size from the environment: [CENTAUR_DOMAINS] if set to a
    positive integer, otherwise [max 1 (recommended_domain_count - 1)].
    Read once and memoized. *)

val size : unit -> int
(** Effective size for the current domain: the innermost {!with_size}
    override, or {!default_size}. *)

val with_size : int -> (unit -> 'a) -> 'a
(** [with_size n f] runs [f] with the effective pool size forced to [n]
    (for this domain only; restored on exit, exception-safe). [n = 1]
    forces the exact sequential path — benchmarks and the determinism
    tests use this to compare sequential and parallel runs inside one
    process. Raises [Invalid_argument] if [n < 1]. *)

val parallel_map_array : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array f a] is [Array.map f a], computed by the pool.
    [f] runs at most once per element; results land at their element's
    index. If one or more applications raise, the exception of the
    {e lowest} failing index is re-raised in the caller (with its
    backtrace) once all items have finished — the pool itself survives
    and stays usable. *)

val parallel_fold_ranges :
  create:(unit -> 'ws) ->
  merge:('acc -> 'ws -> 'acc) ->
  init:'acc ->
  int ->
  ('ws -> lo:int -> hi:int -> unit) ->
  'acc
(** [parallel_fold_ranges ~create ~merge ~init n body] covers the
    indices [0 .. n - 1] across the pool in claimed ranges:
    [body ws ~lo ~hi] processes [\[lo, hi)]. Each participating domain
    gets one reusable workspace built by [create], so scratch state is
    allocated once per participant, not per index, and per-range work
    (workspace dispatch, metrics handles, accumulator lookups) is paid
    once per chunk-sized tile. After the join the caller folds [merge]
    over the workspaces (in stable slot order) to produce the result.

    Which indices land in which workspace, and where the ranges split,
    depends on scheduling, so for deterministic results [merge] must
    not depend on how the index set was partitioned (e.g. each
    workspace accumulates tagged records that the caller re-sorts, or
    the merge is commutative arithmetic).

    A participant grabs a chunk of consecutive indices per atomic claim:
    [n / (8 * size ())], between 1 and 128, so about 8 claims per
    domain. On the sequential path exactly one workspace is created and
    the body is called once with the full range [\[0, n)].

    Exceptions are recorded per range: if [body] raises midway through
    a range, the rest of that range is abandoned and the exception is
    recorded at the range's first index; once all ranges finish, the
    lowest such index's exception is re-raised (the rule of
    {!parallel_map_array}). *)
