(** Nestable timed spans with a domain-safe in-memory ring buffer.

    Spans are compiled in everywhere but recorded only while {!enabled}
    returns true, so instrumented code pays one atomic load when tracing
    is off.  Recording is allocation-light (one record per completed span)
    and the resulting structure — span names, parent links, sibling order —
    is deterministic for a deterministic program: ids are assigned in start
    order and nesting follows the dynamic call tree of each domain, never
    wall-clock comparisons.  Wall-clock fields ([start_us], [dur_us]) and
    allocation counts are measurement noise and must not be asserted on.

    The buffer holds the most recent {!capacity} completed spans; older
    events are overwritten (and counted by {!dropped}).  Export with
    {!to_chrome_json} / {!write_chrome} and open the file in
    [chrome://tracing] or [https://ui.perfetto.dev]. *)

(** One completed span.  [parent = -1] marks a root (no enclosing span on
    its domain).  [id]s are unique per process and increase in span-start
    order.  [trace] is the request trace id in effect when the span opened
    ([""] when none — see {!with_trace}).  [alloc_w] is the minor-heap
    words allocated by this domain while the span was open. *)
type event = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  trace : string;
  domain : int;
  depth : int;
  start_us : float;
  dur_us : float;
  alloc_w : float;
}

(** Recording toggle.  Initialised from the [CLARA_TRACE] environment
    variable ("", "0", "false" and "no" are off; anything else is on);
    defaults to off. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Ring capacity in events ([CLARA_TRACE_BUF], default 65536). *)
val capacity : int

(** [with_ ?cat name f] runs [f ()] inside a span.  The span is recorded
    when [f] returns {i or raises}; the exception is re-raised.  While
    {!Prof.enabled}, the enter/exit also maintains this domain's
    published stack for the sampling profiler (one extra atomic load
    when it is off). *)
val with_ : ?cat:string -> string -> (unit -> 'a) -> 'a

(** [with_trace id f] runs [f ()] with [id] as the current domain's trace
    id: every span recorded by this domain inside [f] (and every {!Log}
    line) carries it.  Trace ids are domain-local — code that fans work
    out to other domains must call [with_trace] again inside each task
    closure.  Restores the previous trace id on return or exception.
    Always active (independent of {!enabled}). *)
val with_trace : string -> (unit -> 'a) -> 'a

(** The current domain's trace id ([""] when none). *)
val current_trace : unit -> string

(** Id of the innermost span currently open on this domain, or [-1] when
    none (spans only open while {!enabled}). *)
val current_id : unit -> int

(** This domain's span context: its trace id, its stack of open spans
    and the profiler's published stack ({!Prof}).  A cooperative job
    ([Util.Coop]) that suspends inside spans saves its context and
    restores the caller's, and swaps back on resume, so spans recorded
    between its slices are neither children of the job's open spans nor
    attributed to its trace. *)
type context

val save : unit -> context

(** Make [context] this domain's again. *)
val restore : context -> unit

(** Drop all buffered events (the id counter keeps advancing). *)
val reset : unit -> unit

(** Events overwritten since the last {!reset}. *)
val dropped : unit -> int

(** Snapshot of the buffered events, sorted by [id] (= start order). *)
val events : unit -> event list

(** Span tree: children are ordered by start ([id]). *)
type tree = { span : event; children : tree list }

(** Rebuild the forest from the buffer via exact parent links, roots in
    start order.  [domain] restricts to one domain's spans; [trace] to
    spans carrying one trace id (a span whose parent is filtered out
    becomes a root, so a request's subtree stands alone). *)
val forest : ?domain:int -> ?trace:string -> unit -> tree list

(** Preorder [(name, depth)] listing of a tree, for structural
    assertions that ignore wall-clock values. *)
val flatten : tree -> (string * int) list

(** Buffered events whose recorded parent is no longer in the buffer
    (only possible after ring wrap-around). *)
val orphans : unit -> event list

(** Chrome [trace_event] JSON ("X" complete events, [tid] = domain id,
    timestamps rebased to the earliest buffered span). *)
val to_chrome_json : unit -> string

val write_chrome : string -> unit
