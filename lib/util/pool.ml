(** Fixed-size domain pool with deterministic data-parallel combinators.

    OCaml 5 Domains back every hot loop in the repository — cross-validation
    folds, GBDT split search, LSTM batch gradients, dataset synthesis, the
    experiment fan-out.  Two design rules keep the results trustworthy:

    - {b Determinism.}  Work is split into chunks whose boundaries depend
      only on the problem size (never on the worker count), reductions
      combine chunk results in index order, and the serial fallback executes
      the very same chunked algorithm.  A computation therefore produces
      bit-identical floats whether [CLARA_JOBS] is 1, 4, or 64.
    - {b One pool.}  Workers are spawned once, on first use, and parked on a
      condition variable between calls; a parallel region costs two lock
      round-trips, not [num_domains] domain spawns.

    Concurrency scheme: callers enqueue closures under [lock], wake the
    workers, then join the queue themselves (the caller is worker zero).
    Completion is tracked per call with an atomic countdown, so concurrent
    parallel regions from different domains can share the pool.  A task that
    itself enters the pool runs its region serially — nested parallelism
    changes nothing semantically and the flat schedule keeps the pool
    deadlock-free. *)

let default_chunk n = max 1 ((n + 63) / 64)

(* Regions whose estimated total work is below this many microseconds run
   serially: splitting them across domains costs more in wake-ups and
   cache traffic than the parallelism recovers.  The serial path executes
   the identical chunked algorithm, so the cutoff is purely a scheduling
   decision and never changes results. *)
let serial_cutoff_us = 1000.0

(* -- pool metrics (always on; see lib/obs) -- *)

let m_regions = Obs.Metrics.counter ~help:"Parallel regions entered" "clara_pool_regions_total"
let m_tasks = Obs.Metrics.counter ~help:"Pool tasks (chunks) executed" "clara_pool_tasks_total"

let m_serial_regions =
  Obs.Metrics.counter
    ~help:"Regions taken on the serial path (width 1, single task, or below the cost cutoff)"
    "clara_pool_serial_regions_total"

let m_wakeups =
  Obs.Metrics.counter ~help:"Times a parked worker woke from its condition variable"
    "clara_pool_worker_wakeups_total"

let m_wake_tasks =
  Obs.Metrics.counter ~help:"Tasks executed by woken workers (divide by wakeups for tasks/wake)"
    "clara_pool_wake_tasks_total"

let m_chunk_items =
  Obs.Metrics.histogram ~help:"Items per chunk submitted to parallel regions"
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 256.0; 1024.0; 4096.0 |]
    "clara_pool_chunk_items"

let m_queue =
  Obs.Metrics.gauge ~help:"Tasks enqueued by the most recent parallel region" "clara_pool_queue_depth"

let m_size = Obs.Metrics.gauge ~help:"Effective job count (Pool.size)" "clara_pool_size"

let m_util =
  Obs.Metrics.gauge ~help:"Busy fraction of the last parallel region (busy / wall * jobs)"
    "clara_pool_utilization"

let busy_counter d =
  Obs.Metrics.counter ~help:"Seconds spent executing pool tasks"
    ~labels:[ ("domain", string_of_int d) ]
    "clara_pool_busy_seconds_total"

let idle_counter d =
  Obs.Metrics.counter ~help:"Seconds workers spent parked waiting for work"
    ~labels:[ ("domain", string_of_int d) ]
    "clara_pool_idle_seconds_total"

(* -- job-count policy -- *)

let env_jobs () =
  match Sys.getenv_opt "CLARA_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> Some n
     | _ -> None)
  | None -> None

(* 0 = not yet resolved; resolved lazily so tests can override first *)
let jobs_setting = Atomic.make 0

let jobs () =
  let j = Atomic.get jobs_setting in
  if j > 0 then j
  else begin
    let j =
      match env_jobs () with Some n -> n | None -> Domain.recommended_domain_count ()
    in
    Atomic.set jobs_setting j;
    j
  end

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: need >= 1 job";
  Atomic.set jobs_setting n

(* Running more domains than cores never helps a compute-bound region and
   actively hurts (the domains share one core and the major GC makes them
   rendezvous), so the effective width is clamped to the machine.  Tests
   that want real multi-domain schedules on small machines opt out with
   CLARA_OVERSUBSCRIBE=1; results are identical either way. *)
let oversubscribe =
  lazy (match Sys.getenv_opt "CLARA_OVERSUBSCRIBE" with Some "1" -> true | _ -> false)

let cores = lazy (Domain.recommended_domain_count ())

let width () =
  let j = jobs () in
  if Lazy.force oversubscribe then j else min j (Lazy.force cores)

(* -- the worker pool -- *)

let lock = Mutex.create ()
let work_available = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let quitting = ref false
let workers : unit Domain.t list ref = ref []
let n_workers = ref 0

(* true while this domain is executing a pool task: nested regions go serial *)
let inside_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(** Effective parallelism of a region started here and now: 1 inside a
    pool task (nested regions run serially), else the core-clamped
    [width ()]. *)
let size () = if Domain.DLS.get inside_task then 1 else width ()

let in_task () = Domain.DLS.get inside_task

let worker_loop () =
  let rec next () =
    (* called with [lock] held *)
    if !quitting then None
    else
      match Queue.take_opt queue with
      | Some t -> Some t
      | None ->
        let t0 = Obs.Clock.now_s () in
        Condition.wait work_available lock;
        Obs.Metrics.addf (idle_counter (Domain.self () :> int)) (Obs.Clock.now_s () -. t0);
        Obs.Metrics.inc m_wakeups;
        next ()
  in
  let rec loop () =
    Mutex.lock lock;
    let t = next () in
    Mutex.unlock lock;
    match t with
    | None -> ()
    | Some t ->
      t ();
      Obs.Metrics.inc m_wake_tasks;
      loop ()
  in
  loop ()

(* Grow the pool to [target] parked workers (never shrinks: determinism is
   independent of the worker count, so extra workers are harmless). *)
let ensure_workers target =
  if !n_workers < target then begin
    Mutex.lock lock;
    while !n_workers < target do
      incr n_workers;
      workers := Domain.spawn worker_loop :: !workers
    done;
    Mutex.unlock lock
  end

let shutdown () =
  let ws =
    Mutex.lock lock;
    quitting := true;
    Condition.broadcast work_available;
    let ws = !workers in
    workers := [];
    n_workers := 0;
    Mutex.unlock lock;
    ws
  in
  List.iter Domain.join ws;
  quitting := false

let () = at_exit shutdown

(** Run every task, re-raising the lowest-indexed exception once all have
    finished.  The caller participates instead of blocking.
    [serial_hint] forces the serial path (used by the cost model for
    regions too small to be worth waking workers); it is a pure
    scheduling decision, so results are unchanged. *)
let run_tasks ?(serial_hint = false) (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    Obs.Metrics.inc m_regions;
    Obs.Metrics.add m_tasks n;
    Obs.Metrics.set_gauge m_size (float_of_int (size ()));
    let serial () =
      Obs.Metrics.inc m_serial_regions;
      Array.iteri
        (fun i t ->
          let saved = Domain.DLS.get inside_task in
          Domain.DLS.set inside_task true;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set inside_task saved)
            (fun () ->
              Obs.Fault.guard ~k:i "pool.task";
              t ()))
        tasks
    in
    if serial_hint || size () <= 1 || n = 1 then serial ()
    else begin
      ensure_workers (width () - 1);
      let region_t0 = Obs.Clock.now_s () in
      let busy_us = Atomic.make 0 in
      let remaining = Atomic.make n in
      let failure : exn option array = Array.make n None in
      let done_lock = Mutex.create () in
      let all_done = Condition.create () in
      (* Fault injection is keyed by chunk index, and the lowest-indexed
         failure is the one re-raised below, so an armed [pool.task] point
         surfaces the same exception whether the chunks ran serially or
         across domains. *)
      let wrap i t () =
        Domain.DLS.set inside_task true;
        let t0 = Obs.Clock.now_s () in
        (try
           Obs.Fault.guard ~k:i "pool.task";
           t ()
         with e -> failure.(i) <- Some e);
        let dt = Obs.Clock.now_s () -. t0 in
        Obs.Metrics.addf (busy_counter (Domain.self () :> int)) dt;
        ignore (Atomic.fetch_and_add busy_us (int_of_float (dt *. 1e6)));
        Domain.DLS.set inside_task false;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock done_lock;
          Condition.broadcast all_done;
          Mutex.unlock done_lock
        end
      in
      Obs.Metrics.set_gauge m_queue (float_of_int n);
      Mutex.lock lock;
      Array.iteri (fun i t -> Queue.add (wrap i t) queue) tasks;
      Condition.broadcast work_available;
      Mutex.unlock lock;
      (* help drain the queue; when it runs dry, wait for the stragglers *)
      let rec help () =
        if Atomic.get remaining > 0 then begin
          Mutex.lock lock;
          let t = Queue.take_opt queue in
          Mutex.unlock lock;
          match t with
          | Some t ->
            t ();
            help ()
          | None ->
            Mutex.lock done_lock;
            while Atomic.get remaining > 0 do
              Condition.wait all_done done_lock
            done;
            Mutex.unlock done_lock
        end
      in
      help ();
      let wall = Obs.Clock.now_s () -. region_t0 in
      let busy = float_of_int (Atomic.get busy_us) /. 1e6 in
      Obs.Metrics.set_gauge m_util
        (Float.min 1.0 (busy /. Float.max 1e-9 (wall *. float_of_int (width ()))));
      Obs.Metrics.set_gauge m_queue 0.0;
      Array.iter (function Some e -> raise e | None -> ()) failure
    end
  end

(* -- deterministic chunked combinators -- *)

(** Chunk [[0, n)] into jobs-independent ranges and run [body lo hi] (hi
    exclusive) for each.  Chunk size is [chunk] when given, else
    [max min_chunk (ceil (n / 64))] — both depend only on the problem
    size, never on the job count, so chunk boundaries (and with them
    reduction order and fault-injection keys) are schedule-independent. *)
let chunked_ranges ?chunk ?(min_chunk = 1) n =
  let size =
    match chunk with Some c -> max 1 c | None -> max (max 1 min_chunk) (default_chunk n)
  in
  let n_chunks = (n + size - 1) / size in
  Array.init n_chunks (fun c -> (c * size, min n ((c + 1) * size)))

(* [cost] is the caller's estimate of microseconds per item; a region whose
   total estimated work is under [serial_cutoff_us] is scheduled serially. *)
let too_small_for_parallelism ?cost n =
  match cost with
  | Some c -> float_of_int n *. c < serial_cutoff_us
  | None -> false

let observe_chunks ranges =
  Array.iter (fun (lo, hi) -> Obs.Metrics.observe m_chunk_items (float_of_int (hi - lo))) ranges

let parallel_for ?chunk ?min_chunk ?cost lo hi body =
  let n = hi - lo in
  if n > 0 then begin
    let ranges = chunked_ranges ?chunk ?min_chunk n in
    observe_chunks ranges;
    run_tasks
      ~serial_hint:(too_small_for_parallelism ?cost n)
      (Array.map
         (fun (clo, chi) ->
           fun () ->
             for i = lo + clo to lo + chi - 1 do
               body i
             done)
         ranges)
  end

let parallel_init ?chunk ?min_chunk ?cost n f =
  if n = 0 then [||]
  else begin
    (* Seed the result array with the first element so no Option boxing is
       needed; [f 0] runs on the caller — marked as a task so nested
       regions stay serial — and indices [1, n) fan out.  Chunk boundaries
       over [1, n) still depend only on [n]. *)
    let v0 =
      let saved = Domain.DLS.get inside_task in
      Domain.DLS.set inside_task true;
      Fun.protect ~finally:(fun () -> Domain.DLS.set inside_task saved) (fun () -> f 0)
    in
    let out = Array.make n v0 in
    parallel_for ?chunk ?min_chunk ?cost 1 n (fun i -> out.(i) <- f i);
    out
  end

let parallel_map ?chunk ?min_chunk ?cost f arr =
  parallel_init ?chunk ?min_chunk ?cost (Array.length arr) (fun i -> f arr.(i))

let parallel_map_list ?chunk ?min_chunk ?cost f l =
  Array.to_list (parallel_map ?chunk ?min_chunk ?cost f (Array.of_list l))

let parallel_concat_map_list ?chunk ?min_chunk ?cost f l =
  List.concat (parallel_map_list ?chunk ?min_chunk ?cost f l)

(** Ordered reduction of [f 0 ... f (n-1)]: each chunk folds left-to-right,
    chunk results combine left-to-right, so the float-combination order is
    fixed by [n] (and [chunk]) alone.  [n] must be >= 1. *)
let parallel_reduce ?chunk ?min_chunk ?cost ~combine f n =
  if n < 1 then invalid_arg "Pool.parallel_reduce: need n >= 1";
  let ranges = chunked_ranges ?chunk ?min_chunk n in
  let serial_hint = too_small_for_parallelism ?cost n in
  let partials =
    parallel_map ~chunk:1 ?cost:(if serial_hint then Some 0.0 else None)
      (fun (lo, hi) ->
        let acc = ref (f lo) in
        for i = lo + 1 to hi - 1 do
          acc := combine !acc (f i)
        done;
        !acc)
      ranges
  in
  let acc = ref partials.(0) in
  for c = 1 to Array.length partials - 1 do
    acc := combine !acc partials.(c)
  done;
  !acc
