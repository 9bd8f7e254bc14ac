(** Fixed-size domain pool with deterministic data-parallel combinators.

    Workers ([jobs () - 1] of them) are spawned once on first use and
    reused by every parallel region.  Chunk boundaries depend only on the
    problem size and reductions combine chunk results in index order, so
    every combinator returns bit-identical results for any job count —
    [CLARA_JOBS=1] (or [set_jobs 1]) degrades gracefully to the same
    chunked algorithm executed serially.  Nested regions (a task that
    itself calls into the pool) run serially and are deadlock-free.
    Exceptions raised by tasks are re-raised in the caller once the region
    completes (lowest task index wins). *)

(** Configured parallelism: the [CLARA_JOBS] environment variable if set
    and >= 1, else [Domain.recommended_domain_count ()], else a
    {!set_jobs} override. *)
val jobs : unit -> int

(** {!jobs} clamped to [Domain.recommended_domain_count ()]: running more
    domains than cores only adds contention, so regions are scheduled at
    this width.  Set [CLARA_OVERSUBSCRIBE=1] to honour the configured job
    count anyway (the equivalence suites do, to exercise real
    multi-domain schedules on small machines).  Results never depend on
    the width. *)
val width : unit -> int

(** Effective parallelism of a region started by the calling domain right
    now: 1 from inside a pool task (nested regions run serially), else
    {!width}.  Callers wanting "how wide will my fan-out actually run?"
    should use this instead of re-reading [CLARA_JOBS]. *)
val size : unit -> int

(** Is the calling domain running a pool task right now? *)
val in_task : unit -> bool

(** Override the job count (e.g. for serial/parallel equivalence tests).
    Takes effect for subsequent regions; already-spawned workers are kept
    parked, which never changes results.
    @raise Invalid_argument unless n >= 1. *)
val set_jobs : int -> unit

(** Run all tasks to completion (caller participates), then re-raise the
    lowest-indexed task exception, if any.  [serial_hint] forces the
    serial path — a scheduling decision only, results are identical. *)
val run_tasks : ?serial_hint:bool -> (unit -> unit) array -> unit

(** True when [n] items at an estimated [cost] microseconds each fall
    under the serial cutoff (currently 1 ms of total work), i.e. when a
    region with that cost hint will be scheduled serially.  Without
    [cost] the answer is always false.  Exposed for tests and for callers
    tuning cost hints. *)
val too_small_for_parallelism : ?cost:float -> int -> bool

(** Jobs-independent chunking of [[0, n)] as (lo, hi-exclusive) ranges.
    Chunk size is [chunk] when given, else [max min_chunk (ceil (n / 64))];
    either way it depends only on the problem size, never the job count. *)
val chunked_ranges : ?chunk:int -> ?min_chunk:int -> int -> (int * int) array

(** Every combinator below takes the same three scheduling knobs, none of
    which can change results:
    - [chunk]: exact items per task.
    - [min_chunk]: lower bound on the default chunk size, for bodies so
      cheap that per-task overhead would dominate.
    - [cost]: estimated microseconds per item; when [n * cost] falls under
      the internal cutoff (currently 1 ms) the region runs serially —
      waking workers for sub-millisecond work is a net loss. *)

(** [parallel_for lo hi body] runs [body i] for [lo <= i < hi]. *)
val parallel_for : ?chunk:int -> ?min_chunk:int -> ?cost:float -> int -> int -> (int -> unit) -> unit

(** [Array.init], chunk-parallel.  The result array is allocated once and
    written by index (element 0 is computed on the caller and seeds the
    array; no intermediate boxing). *)
val parallel_init : ?chunk:int -> ?min_chunk:int -> ?cost:float -> int -> (int -> 'a) -> 'a array

(** [Array.map], chunk-parallel, order-preserving. *)
val parallel_map : ?chunk:int -> ?min_chunk:int -> ?cost:float -> ('a -> 'b) -> 'a array -> 'b array

(** [List.map], chunk-parallel, order-preserving. *)
val parallel_map_list :
  ?chunk:int -> ?min_chunk:int -> ?cost:float -> ('a -> 'b) -> 'a list -> 'b list

(** [List.concat_map], chunk-parallel, order-preserving. *)
val parallel_concat_map_list :
  ?chunk:int -> ?min_chunk:int -> ?cost:float -> ('a -> 'b list) -> 'a list -> 'b list

(** Ordered reduction of [f 0 ... f (n-1)]: chunks fold left-to-right and
    combine left-to-right, so the combination order is fixed by [n] and
    [chunk] alone (not by the job count).
    @raise Invalid_argument unless n >= 1. *)
val parallel_reduce :
  ?chunk:int -> ?min_chunk:int -> ?cost:float -> combine:('a -> 'a -> 'a) -> (int -> 'a) -> int -> 'a

(** Stop and join the workers (registered [at_exit]; safe to call twice —
    the pool respawns on next use). *)
val shutdown : unit -> unit
