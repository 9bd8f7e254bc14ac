(** The scale-out front: one router process consistent-hashing request
    lines over N worker processes (each worker is {!Serve.Server}).

    Speaks the same line-delimited JSON protocol as a single server, on
    the same kind of Unix socket — [clara query] works unchanged against
    a router socket.  It serves through {!Serve.Evloop.run}, the loop the
    server runs too:

    - {b Placement.}  Each forwarded line is decoded once
      ({!Serve.Proto.decode}) and keyed — an [analyze] request by the
      worker's own flow key ({!Serve.Proto.target}: ["nf|workload"], or
      an inline program's key and the workload, so a key's flow-cache
      entry warms exactly one worker whatever the program's spelling),
      everything else (malformed lines and bad programs included) by the
      raw line — and looked up on a consistent-hash ring ({!Chash}) over
      the live, non-draining workers.
    - {b Relay.}  A forwarded line goes down its client's own upstream
      to the owning worker — one {!Serve.Lineio.conn} per (client
      connection, worker), opened on the client's first line for that
      worker, closed with the client — and each worker reply is relayed
      as soon as it arrives (upstream fds join the loop's poll set).
      A miss holds back only its own client's later replies.
    - {b Admission.}  Per-tenant quotas ({!Quota}) shed over-quota lines
      router-side with typed ["overloaded":true] replies, layered on the
      workers' own [max_pending]/[max_clients] shedding and the router's
      own [max_clients] connection bound.
    - {b Failover.}  A connect/write/read failure on an upstream (one
      {!Serve.Lineio.error}, which closes the connection), its EOF, or
      its oldest line waiting longer than [forward_timeout_s] marks the
      worker down: the upstream's owed lines are answered ["ok":false,
      "unavailable":true]
      (typed retryable — {!Serve.Client} backs off and retries, and the
      retry re-hashes over the survivors), the rings are rebuilt, and the
      health prober re-admits the worker when it answers again.
    - {b Rollout.}  {!start_rollout} hot-reloads a configurable canary
      subset of workers to a new bundle version (negotiated end-to-end:
      {!Persist.Bundle.peek_version} on the router, ["expect"] checked in
      the worker's serial reload path) and steers a deterministic
      fraction of keyspace at them ({!Chash.canary_draw} — pure in
      [(seed, key)], so arrival order is irrelevant).  {!promote} reloads
      the rest; {!rollback} restores the previous bundle.  Zero downtime:
      workers swap models between batches, never mid-request.

    Router-local commands (everything else forwards): [health] (the
    aggregated [/healthz] document's fields), [topology] (ring
    membership), [rollout]/[promote]/[rollback], [metrics] (the router
    process's exposition), [shutdown] (broadcast to workers, then stop).
    Direct [reload] is refused — fleet versions move via rollout.

    Workers start presumed-up; the first failed forward or health probe
    corrects that.  With every worker down, lines are answered
    ["unavailable"] rather than erroring the router. *)

type t

(** Where a request line would go — the test suite's determinism hook.
    [None] when the line is router-local. *)
type route = {
  rt_worker : string option;  (** [None] iff no worker is live *)
  rt_canary : bool;
  rt_key : string;
  rt_tenant : string;
}

(** [create ~workers ()] with [(name, socket_path)] pairs (sorted by
    name; names must be unique).  [vnodes] per worker on the ring
    (default 64); [tenant_quota] lines per tenant per round (default 0 =
    unlimited); [forward_timeout_s] how long a forwarded line may wait
    for its worker's reply (default 5); [health_period_s] between probe sweeps in {!run}
    (default 0.5); [canary_seed] the default rollout draw seed (default
    1); [max_clients] the router's own connection bound (default 64);
    [active_bundle] the bundle directory the fleet currently serves —
    required for {!rollback} and partial-canary cleanup. *)
val create :
  ?vnodes:int ->
  ?tenant_quota:int ->
  ?forward_timeout_s:float ->
  ?health_period_s:float ->
  ?canary_seed:int ->
  ?max_clients:int ->
  ?active_bundle:string ->
  workers:(string * string) list ->
  unit ->
  t

(** Route one batch of request lines as one client of its own and
    relay until every line is answered; replies come back in order.
    The in-process harness entry: {!run}'s rounds take the same path
    without waiting.  Never raises: worker failures become typed
    replies. *)
val route_batch : t -> string list -> string list

(** Where would [line] go right now?  Pure: no I/O, no counters. *)
val target : t -> string -> route option

(** One health sweep: refresh every worker's up/version/draining/pid and
    rebuild the rings.  Every worker, up or down, is asked [health] over
    its health/control connection (reconnecting one a failure closed) — a
    respawned worker is re-admitted here. *)
val probe : t -> unit

(** Begin a canary rollout of the bundle in [bundle]: reload
    [ceil (fraction * live)] workers (at least one; at least one
    non-canary is kept when [fraction < 1] and two or more workers are
    live) and steer [fraction] of keyspace at them.  Fails — with every
    already-reloaded canary rolled back — when a reload is refused or a
    rollout is already in progress.  [Ok version] on success. *)
val start_rollout : t -> bundle:string -> fraction:float -> ?seed:int -> unit -> (string, string) result

(** Reload the remaining workers to the canary bundle and make it the
    active bundle.  [Ok (version, failed)] — [failed] names workers that
    could not be reloaded (down, or refused). *)
val promote : t -> (string * string list, string) result

(** Reload the canaries back to the active bundle and end the rollout. *)
val rollback : t -> (string list, string) result

(** The aggregated health document: router ok/pid/counters, rollout
    state, and per-worker name/socket/up/draining/version/pid/forwarded —
    what [GET /healthz] serves when the router fronts an {!Serve.Http}
    endpoint.  Rendered now; the socket [health] command answers from
    the same fields, so both are exact. *)
val healthz_json : t -> string

(** Last rendered {!healthz_json} (safe from another domain — what the
    HTTP endpoint's callback reads).  It is re-rendered by every
    {!probe} sweep and by every membership or rollout change, not per
    round: under {!run} its counters are at most [health_period_s]
    old. *)
val healthz_cached : t -> string

(** Counters: lines entering the router / forwarded to workers / shed
    (quota + connection) / answered unavailable / worker
    down-transitions. *)
val served : t -> int

val forwarded : t -> int
val shed : t -> int
val unavailable : t -> int
val failovers : t -> int

(** Ask {!run} to drain and return (what its SIGTERM handler calls). *)
val request_drain : t -> unit

(** Close every worker connection: the health/control ones and every
    client's upstreams (idempotent; a later round reconnects).  In-process harnesses should call it before checking
    fd hygiene. *)
val close : t -> unit

(** Bind [socket_path] and serve until [shutdown] or a drain is
    requested (SIGTERM / {!request_drain}).  The loop is
    {!Serve.Evloop.run}, the same one {!Serve.Server.run} uses
    (batched rounds, coalesced writes, graceful drain window): router
    commands are answered in their round, forwarded lines when their
    worker replies.  The router adds a
    {!probe} sweep once at start and then, checked before every poll,
    whenever [health_period_s] has elapsed since the last one.  Worker
    connections are closed on the way out. *)
val run : t -> socket_path:string -> unit
