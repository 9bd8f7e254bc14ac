(** The flow table: one scan-resistant LRU over the whole entry budget.

    Eviction rule: a {!find} or {!probe} hit promotes the entry and marks
    it as hit since install (a re-install keeps the mark).  When an
    install puts the table over its budget, the victim is the
    least-recently-used {e never-hit} entry, never the entry being
    installed; only when no other never-hit entry is left does the rule
    fall back to plain LRU among the hit ones.  There is no admission
    filter: an installed key's next lookup is a hit.  So a stream of
    one-shot keys (inline programs asked once) displaces only other
    never-hit entries, while keys that have been asked again stay
    resident as long as they fit the budget; a new key that is hit once
    is protected like any other hit entry.  Two recency queues, one per
    hit mark, give the victim in O(1): no install scans the table.

    Every key also has a {e shard label}, FNV-1a over the key string
    modulo [shards]: a pure function of the bytes, identical for any
    [CLARA_JOBS] value, domain count or insertion order.  The label
    places nothing and bounds nothing; it picks the key's flight ring,
    and the table counts its entries per label.

    The table takes no lock: one domain owns it (the serving loop's,
    which plans, probes and installs).

    The table registers {!Obs.Metrics} instruments once per process:
    [clara_fastpath_hits_total] / [clara_fastpath_misses_total] (lookup
    outcomes), [clara_slowpath_installs_total] (entries installed by the
    slow path), [clara_fastpath_evictions_total], and per-label occupancy
    gauges [clara_fastpath_shard_occupancy{shard="i"}]. *)

type 'a t

(** [create ~shards ~capacity ()] — [capacity] is the entry budget,
    exactly; [shards] (default 8) is the range of {!shard_of_key}'s
    labels; [capacity 0] disables caching entirely (finds miss, installs
    are dropped).
    @raise Invalid_argument if [shards < 1] or [capacity < 0]. *)
val create : ?shards:int -> capacity:int -> unit -> 'a t

(** The number of shard labels. *)
val shard_count : _ t -> int

(** The entry budget (0 when caching is disabled). *)
val capacity : _ t -> int

(** The label of [key], in [0, shard_count) — stable across processes
    and job counts. *)
val shard_of_key : _ t -> string -> int

(** Lookup counted as a hit or a miss (the slow path's view). *)
val find : 'a t -> string -> 'a option

(** Lookup counting only hits — the fast path probes with this and lets
    the slow path count the miss when it falls through, so each request
    line counts at most one lookup outcome. *)
val probe : 'a t -> string -> 'a option

(** Insert (or refresh, keeping its hit mark) an entry, evicting by the
    rule above when the table is over its budget.  No-op when caching is
    disabled. *)
val install : 'a t -> string -> 'a -> unit

val length : _ t -> int

(** Installed entries whose key has label [i]. *)
val shard_length : _ t -> int -> int

val hits : _ t -> int
val misses : _ t -> int
val installs : _ t -> int
val evictions : _ t -> int
