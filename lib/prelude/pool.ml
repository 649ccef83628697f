(* Worker domains park on [work_cond] between jobs. A job is a bag of
   [total] indices claimed in chunks of [chunk] via fetch-and-add; every
   participant (the caller included) drains the bag, and the caller
   blocks on [done_cond] until the completion count reaches [total].
   Determinism falls out of storing results by index: claiming order
   varies run to run, but the value computed for index [i] and where it
   lands do not.

   Chunked claiming keeps the atomic off the hot path: one fetch-and-add
   hands a participant [chunk] consecutive indices, so for fine-grained
   work items the claim cost and the cache-line ping-pong on [next]
   amortize across the whole chunk.

   Every participant has a stable slot id: the caller is slot 0, the
   i-th spawned worker is slot i. [parallel_fold_ranges] keys
   per-domain scratch workspaces by slot, so state that would
   otherwise be allocated per index is allocated once per
   participating domain.

   Invariant kept by the entry points: [job.run] never raises (user
   exceptions are captured per index and re-raised by the caller after
   the join), so a worker can never die mid-job and the pool is always
   reusable after a failure. *)

(* OCaml 5.1 runs at most 128 domains at once: the caller and 127
   workers. *)
let max_size = 128

let parse_size s =
  match int_of_string_opt (String.trim s) with
  | Some v when v >= 1 -> Some (min v max_size)
  | Some _ | None -> None

(* Computed on first use and cached in an atomic (0 = not yet known):
   worker domains may ask concurrently, and forcing one [lazy] from two
   domains at once raises [CamlinternalLazy.Undefined]. Racing first
   calls compute the same value. *)
let default_size_cell = Atomic.make 0

let default_size () =
  match Atomic.get default_size_cell with
  | 0 ->
    let v =
      match Option.bind (Sys.getenv_opt "CENTAUR_DOMAINS") parse_size with
      | Some v -> v
      | None -> max 1 (Domain.recommended_domain_count () - 1)
    in
    Atomic.set default_size_cell v;
    v
  | v -> v

(* [inside]: true in worker domains, and in the caller while it drains a
   job — any parallel entry from such a context runs sequentially
   instead of re-entering the pool (which would deadlock on
   [call_lock]). *)
let inside = Domain.DLS.new_key (fun () -> false)

let override = Domain.DLS.new_key (fun () -> None)

let size () =
  match Domain.DLS.get override with
  | Some n -> n
  | None -> default_size ()

let with_size n f =
  if n < 1 then invalid_arg "Pool.with_size: size must be >= 1";
  let prev = Domain.DLS.get override in
  Domain.DLS.set override (Some (min n max_size));
  Fun.protect ~finally:(fun () -> Domain.DLS.set override prev) f

type job = {
  (* [run ~slot ~lo ~hi] processes indices [lo, hi); must not raise. *)
  run : slot:int -> lo:int -> hi:int -> unit;
  total : int;
  chunk : int;
  next : int Atomic.t;
  completed : int Atomic.t;
}

let mutex = Mutex.create ()
let work_cond = Condition.create ()
let done_cond = Condition.create ()

(* Serializes whole parallel calls from distinct domains; uncontended in
   the common single-caller case. *)
let call_lock = Mutex.create ()

let current_job : job option ref = ref None
let generation = ref 0
let shutting_down = ref false
let worker_handles : unit Domain.t list ref = ref []
let num_workers = ref 0
let exit_hook_registered = ref false

let exec_job ~slot j =
  let rec claim () =
    let lo = Atomic.fetch_and_add j.next j.chunk in
    if lo < j.total then begin
      let hi = min (lo + j.chunk) j.total in
      j.run ~slot ~lo ~hi;
      if hi - lo + Atomic.fetch_and_add j.completed (hi - lo) = j.total
      then begin
        Mutex.lock mutex;
        Condition.broadcast done_cond;
        Mutex.unlock mutex
      end;
      claim ()
    end
  in
  claim ()

let worker_main ~slot initial_gen () =
  Domain.DLS.set inside true;
  let rec park last_gen =
    Mutex.lock mutex;
    while !generation = last_gen && not !shutting_down do
      Condition.wait work_cond mutex
    done;
    let gen = !generation in
    let job = !current_job in
    let quit = !shutting_down in
    Mutex.unlock mutex;
    if not quit then begin
      (match job with Some j -> exec_job ~slot j | None -> ());
      park gen
    end
  in
  park initial_gen

(* Called with [call_lock] held, so [num_workers] / [worker_handles]
   are never mutated concurrently. *)
let ensure_workers target =
  if !num_workers < target then begin
    if not !exit_hook_registered then begin
      exit_hook_registered := true;
      at_exit (fun () ->
          Mutex.lock mutex;
          shutting_down := true;
          Condition.broadcast work_cond;
          Mutex.unlock mutex;
          List.iter Domain.join !worker_handles)
    end;
    Mutex.lock mutex;
    let gen = !generation in
    Mutex.unlock mutex;
    while !num_workers < target do
      let slot = !num_workers + 1 in
      worker_handles :=
        Domain.spawn (worker_main ~slot gen) :: !worker_handles;
      incr num_workers
    done
  end

(* Chunk heuristic: aim for ~8 claims per participant so dynamic load
   balancing survives skewed per-index costs, capped so one claim never
   monopolizes a large job. *)
let chunk_size ~total =
  max 1 (min 128 (total / (size () * 8)))

(* [make_run] is applied once the worker set for this job is final;
   [slots] is an exclusive upper bound on the slot ids that can
   participate, letting callers pre-size per-slot state. The returned
   [run] must not raise; see the invariant at the top of the file. *)
let run_job ~total make_run =
  Mutex.lock call_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock call_lock)
    (fun () ->
      ensure_workers (min (size () - 1) (total - 1));
      let slots = 1 + !num_workers in
      let run = make_run ~slots in
      let j =
        { run;
          total;
          chunk = chunk_size ~total;
          next = Atomic.make 0;
          completed = Atomic.make 0 }
      in
      Mutex.lock mutex;
      current_job := Some j;
      incr generation;
      Condition.broadcast work_cond;
      Mutex.unlock mutex;
      Domain.DLS.set inside true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside false)
        (fun () -> exec_job ~slot:0 j);
      Mutex.lock mutex;
      while Atomic.get j.completed < j.total do
        Condition.wait done_cond mutex
      done;
      current_job := None;
      Mutex.unlock mutex)

let use_sequential total = size () <= 1 || total <= 1 || Domain.DLS.get inside

let reraise_first failures =
  let first = ref None in
  for i = Array.length failures - 1 downto 0 do
    match failures.(i) with Some _ as f -> first := f | None -> ()
  done;
  match !first with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_map_array f a =
  let total = Array.length a in
  if use_sequential total then Array.map f a
  else begin
    let results = Array.make total None in
    let failures = Array.make total None in
    let run ~slot:_ ~lo ~hi =
      for i = lo to hi - 1 do
        match f (Array.unsafe_get a i) with
        | v -> results.(i) <- Some v
        | exception e ->
          failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
      done
    in
    run_job ~total (fun ~slots:_ -> run);
    reraise_first failures;
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_fold_ranges ~create ~merge ~init total body =
  if total <= 0 then init
  else if use_sequential total then begin
    let ws = create () in
    body ws ~lo:0 ~hi:total;
    merge init ws
  end
  else begin
    let failures = Array.make total None in
    let slots_ref = ref [||] in
    run_job ~total (fun ~slots ->
        let wss = Array.make slots None in
        slots_ref := wss;
        fun ~slot ~lo ~hi ->
          (* Each slot id is owned by exactly one domain, so the lazy
             per-slot workspace write below is unshared. *)
          match
            match wss.(slot) with
            | Some ws -> ws
            | None ->
              let ws = create () in
              wss.(slot) <- Some ws;
              ws
          with
          | exception e ->
            failures.(lo) <- Some (e, Printexc.get_raw_backtrace ())
          | ws -> (
            try body ws ~lo ~hi
            with e -> failures.(lo) <- Some (e, Printexc.get_raw_backtrace ())));
    reraise_first failures;
    Array.fold_left
      (fun acc ws -> match ws with None -> acc | Some ws -> merge acc ws)
      init !slots_ref
  end
