(** Sampling continuous profiler over {!Span}'s live span stacks.

    A ticker domain wakes at a configured rate ([CLARA_PROF_HZ], default
    99 Hz) and samples what every domain is doing {e right now}: the
    stack of open span names, innermost to root.  Because [Domain.DLS]
    is readable only from its own domain, each domain publishes its
    current name stack into a shared single-writer cell whenever the
    profiler is on; the ticker snapshots those cells with one atomic
    load apiece.  Samples accumulate as {e folded stacks} — the
    semicolon-joined root-first paths ("serve.batch;pipeline.analyze")
    that flamegraph.pl and speedscope consume directly.

    Allocation is attributed per stack too.  [Gc.Memprof] is attempted
    first; OCaml 5.1's multicore runtime refuses it ([Gc.Memprof.start]
    raises), in which case the profiler falls back to exact per-span
    minor-word deltas: self-allocation (total minus children) is binned
    to the full stack path when each span closes.  {!memprof_active}
    reports which source is live.

    Off by default.  When off, instrumented code ({!Span.with_}) pays one
    atomic load — the same discipline as span recording, enforced by the
    [bench/main.exe obs] and [flight] gates.  Sample counts and wall
    pacing are measurement noise: tests must assert on structure (which
    paths appear), never on counts.

    Counters and tables survive {!stop}; {!reset} clears them. *)

(** Is the profiler running?  One atomic load. *)
val enabled : unit -> bool

(** Alias for {!enabled} (reads better at call sites managing the
    lifecycle). *)
val running : unit -> bool

(** Spawn the ticker domain at [hz] samples per second (default: the
    [CLARA_PROF_HZ] environment variable, else 99.0).  Idempotent while
    running.  @raise Invalid_argument when [hz <= 0]. *)
val start : ?hz:float -> unit -> unit

(** Stop and join the ticker; accumulated tables are kept. Idempotent. *)
val stop : unit -> unit

(** The configured sampling rate, 0.0 when stopped. *)
val hz : unit -> float

(** Is sampled [Gc.Memprof] attribution live (vs the exact minor-word
    fallback)?  False on OCaml 5.1's multicore runtime. *)
val memprof_active : unit -> bool

(** Drop every accumulated bucket and counter. *)
val reset : unit -> unit

(** {2 Span hooks (called by {!Span.with_}; not for application code)} *)

(** Push [name] onto this domain's published stack; returns [true] so the
    caller can pair the pop unconditionally even if the profiler stops
    mid-span. *)
val enter : string -> bool

(** Pop this domain's published stack, attributing the closing frame's
    self-allocation. *)
val exit_ : unit -> unit

(** This domain's published stack, as {!Span.save} captures it. *)
type saved

val save : unit -> saved

(** Make [saved] this domain's published stack again. *)
val restore : saved -> unit

(** {2 Export} *)

type stack = { path : string; samples : int; alloc_w : float }

(** Accumulated buckets, hottest first (samples, then alloc, then path —
    a reproducible order for equal counts). *)
val stacks : unit -> stack list

(** Collapsed flamegraph text: one ["path count\n"] line per sampled
    stack (paths with zero CPU samples are omitted). *)
val folded : unit -> string

(** Same shape weighted by attributed minor-heap words instead of CPU
    samples. *)
val folded_alloc : unit -> string

(** One JSON document: enablement, rate, attribution source, tick/sample
    totals, and every bucket. *)
val to_json_string : unit -> string
