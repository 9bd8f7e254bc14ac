(** Sharded, mutex-per-shard flow table — the serving layer's replacement
    for a single global LRU.

    Keys spread over [N] shards by FNV-1a over the key string: shard
    assignment is a pure function of the bytes, identical for any
    [CLARA_JOBS] value, domain count or insertion order.  Each shard is
    an independent, scan-resistant stamp-LRU behind its own mutex, so
    lookups on different shards never contend.

    Eviction rule: a {!find} or {!probe} hit promotes the entry and marks
    it as hit since install (a re-install keeps the mark).  When an
    install puts a shard over its per-shard bound, the victim is the
    least-recently-used {e never-hit} entry of {e that shard}, never the
    entry being installed; only when every other entry has been hit does
    the rule fall back to plain LRU.  There is no admission filter: an
    installed key's next lookup is a hit.  So a stream of one-shot keys
    (inline programs asked once) displaces only other never-hit entries,
    while keys that have been asked again stay resident; a new key that
    is hit once is protected like any other hit entry.

    The table registers {!Obs.Metrics} instruments once per process:
    [clara_fastpath_hits_total] / [clara_fastpath_misses_total] (lookup
    outcomes), [clara_slowpath_installs_total] (entries installed by the
    slow path), [clara_fastpath_evictions_total], and per-shard occupancy
    gauges [clara_fastpath_shard_occupancy{shard="i"}]. *)

type 'a t

(** [create ~shards ~capacity ()] — [capacity] is the total entry budget,
    split evenly across [shards] (rounded up to at least one entry per
    shard, so the effective total may round up to [shards]); [capacity 0]
    disables caching entirely (every shard degenerate: finds miss,
    installs are dropped).
    @raise Invalid_argument if [shards < 1] or [capacity < 0]. *)
val create : ?shards:int -> capacity:int -> unit -> 'a t

val shard_count : _ t -> int

(** Sum of per-shard bounds (0 when caching is disabled). *)
val capacity : _ t -> int

(** The shard [key] lives in — stable across processes and job counts. *)
val shard_of_key : _ t -> string -> int

(** Lookup counted as a hit or a miss (the slow path's view). *)
val find : 'a t -> string -> 'a option

(** Lookup counting only hits — the fast path probes with this and lets
    the slow path count the miss when it falls through, so each request
    line counts at most one lookup outcome. *)
val probe : 'a t -> string -> 'a option

(** Insert (or refresh, keeping its hit mark) an entry, evicting within
    the key's shard by the rule above while it is over its bound.  No-op
    when caching is disabled. *)
val install : 'a t -> string -> 'a -> unit

val length : _ t -> int
val shard_length : _ t -> int -> int
val hits : _ t -> int
val misses : _ t -> int
val installs : _ t -> int
val evictions : _ t -> int
