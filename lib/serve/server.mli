(** The Clara insight service: a long-running analysis daemon speaking
    line-delimited JSON over a Unix domain socket.

    Each request is one JSON object on one line; each gets exactly one
    JSON reply line.  Requests:

    {v
    {"id":1,"cmd":"analyze","nf":"cmsketch","workload":"mixed"}
    {"id":2,"cmd":"analyze","p4lite":{...},"workload":"small"}
    {"id":3,"cmd":"list"}       corpus NF names
    {"id":4,"cmd":"stats"}      served / cache counters
    {"id":5,"cmd":"ping"}
    {"id":6,"cmd":"metrics"}    Prometheus-style exposition (Obs.Metrics)
    {"id":7,"cmd":"trace","trace_id":"abc"}   one request's span subtree
    {"id":8,"cmd":"quality"}    prediction-quality telemetry (JSON string)
    {"id":9,"cmd":"flight"}     flight-recorder snapshot (JSON string);
                                optional "dump":"PATH" also writes a JSONL
                                dump server-side
    {"id":10,"cmd":"profile"}   continuous-profiler state ("profile": JSON
                                string, "folded": collapsed flamegraph text)
    {"id":11,"cmd":"shutdown"}  reply, then stop accepting
    {"id":12,"cmd":"health"}    liveness doc: version, draining, pid,
                                served/shed counters
    {"id":13,"cmd":"reload","bundle":"DIR"}   hot-swap the serving models
                                for the bundle in DIR (see below)
    v}

    ["op"] is accepted as an alias for ["cmd"].

    Replies carry ["ok":true] plus command-specific fields (for [analyze]:
    ["nf"], ["workload"], ["cached"], ["path"], ["report"]), or
    ["ok":false] with ["error"] — and, for unknown NFs, ["valid"] listing
    corpus names.  Error replies echo the request ["id"] whenever one is
    recoverable, even from lines that fail to parse as JSON.

    {b Fast path / slow path.}  The service is split DOCA-style: the
    {e slow path} parses the request, runs the full analysis pipeline on
    the server's one compiled model set (flattened tree ensembles, LSTM
    inference into preallocated scratch, a per-block prediction memo
    every key shares) and installs a flow entry — pre-serialized reply
    bytes — into the flow cache, one never-hit-first LRU over the whole
    [cache_capacity] budget ({!Fastpath.Shards}).  The {e fast path} answers a
    repeat [analyze] query without building any intermediate JSON: the
    raw line is scanned in place ({!Fastpath.Scan}), the flow cache is
    probed, and the entry's bytes are spliced with the request's own
    id/trace tokens.  Replies state which route answered them in
    ["path"] ([{"path":"fast"}] only for the zero-parse route; a cache
    hit that went through the full parser reports ["slow"] with
    ["cached":true]).  Fast- and slow-path replies for the same request
    are byte-identical apart from exactly those two fields.

    {b Request tracing.}  Every request line carries a trace id — the
    client's ["trace_id"] field, or a generated ["t-N"] — echoed in its
    reply as ["trace_id"].  While span recording is on ([CLARA_TRACE=1]
    or [Obs.Span.set_enabled true]; e.g. [clara serve --trace-requests]),
    the id is attached to every span the request triggers, across pool
    domains, and [{"cmd":"trace","trace_id":"abc"}] answers with that
    request's span subtree ([spans]: nested [name]/[cat]/[dur_us]/
    [children] objects).  The subtree's structure is identical for any
    [CLARA_JOBS] value.  Each request line slower than the slow-request
    threshold logs one [serve.slow_request] line through {!Obs.Log}.

    A batch is answered in three stages: {e plan} (each line, decoded
    once by {!Proto.decode} unless the fast path answers it, becomes a
    reply, a cache hit or a miss — every reply but a miss's exists
    now), {e run} (each distinct miss becomes a job in one FIFO; a later
    miss on a queued key joins that job) and {e render} (a finished job
    installs its flow entry and answers the lines waiting on it).  A
    line's latency is its own: from batch start to when its reply bytes
    exist.

    {b Hits never wait behind misses.}  In {!run} the head job runs as
    cooperative slices on the loop domain ({!Util.Coop}: yield points
    in the interpreter, the predictor, the trace generator and between
    pipeline stages), one slice per loop turn, so hits, errors and commands that arrive while
    a miss is analyzed are answered between its slices; each connection
    still gets its replies in request order.  Jobs run one at a time,
    each on the compiled models current when it was planned;
    parallelism inside one analysis is unchanged.

    {b Deadlines.}  An [analyze] request may carry ["deadline_ms"]: its
    time budget, measured from batch arrival.  The budget is checked at
    planning, on every loop turn while the line waits on its job, and
    when the job's report arrives; when it runs out the reply is
    ["ok":false] with ["deadline_exceeded":true] at once — the server
    answers rather than hangs.
    [deadline_ms] on {!create} (or [CLARA_DEADLINE_MS]) sets the default
    budget for requests that do not name one; a request's own field wins,
    and a value [<= 0] means unlimited.

    {b Backpressure.}  At most [max_pending] request lines are admitted
    per batch, counting the lines still waiting on queued misses; the
    rest are shed immediately with ["ok":false],
    ["overloaded":true] — a machine-readable "retry later" (see
    {!Client}, which backs off and retries exactly these).  At most
    [max_clients] connections are held; a connection beyond that is sent
    one overloaded reply and closed.

    {b Graceful drain.}  SIGTERM (or {!request_drain}) makes {!run} stop
    accepting, answer buffered requests for a short grace window, log
    final counters ([serve.stop]), and return.  Clients that vanish
    mid-conversation (EPIPE/ECONNRESET) are counted and logged at info
    level ([serve.client_disconnected]) — they are the client's
    lifecycle, not a server error.

    {b Fault injection.}  With {!Obs.Fault} points armed ([CLARA_FAULT]),
    [serve.accept]/[serve.read]/[serve.write] raise the corresponding
    [Unix_error]s inside the loop, [jsonl.parse] fails parses, and
    [pool.task] aborts analyses — all surfaced as typed error replies,
    never crashes.

    {b Hot reload.}  [{"cmd":"reload","bundle":DIR}] swaps the serving
    models for the bundle in [DIR] without dropping a request: load
    (through {!Persist.Bundle.load_salvage}), version derivation
    ({!Persist.Bundle.version}) and the models/flow-cache swap all
    happen in the serial planning path, so every request line — in this
    batch or any other — is answered entirely by one version.  An
    optional ["expect"] member is the negotiation handshake: when it
    differs from the loaded bundle's version the reload is rejected.
    Any failure keeps the old models serving and replies typed
    ([ok:false], naming the version still in service); the flow cache
    restarts empty on success.  [{"cmd":"health"}] reports the active
    [version], [draining] and [pid] — what a fronting router aggregates
    into its [/healthz] fan-in.

    {b Quality telemetry.}  With a positive shadow rate ([shadow_rate]
    on {!create}, or [CLARA_SHADOW_RATE]), a deterministic sample of
    analyze answers is re-checked against the cheap simulator ground
    truth off the reply path, building per-NF error sketches, drift
    detectors and SLO burn rates (see {!Quality}).  The
    [{"cmd":"quality"}] request returns the full state as a JSON
    string — the same document [GET /quality] serves over
    {!Http}.

    {b Flight recorder.}  Unless disabled ([flight_capacity 0]), every
    reply line leaves a postmortem record in one ring ({!Obs.Flight}):
    raw request and reply bytes, fast/slow route, latency, trace id and
    outcome class.  Dumps are written as JSONL on
    SIGQUIT, and — rate-limited, when a dump directory is configured
    ([flight_dir] / [CLARA_FLIGHT_DIR]) — on slow requests,
    deadline-exceeded replies, armed-fault hits and uncaught service
    exceptions.  [{"cmd":"flight"}] snapshots the ring on demand;
    [clara replay] turns any dump into a deterministic repro case (see
    {!Replay}). *)

type t

(** Wrap warm-started (or freshly trained) models.  [cache_capacity]
    is the flow cache's entry budget, exactly (default 64; 0 disables
    caching).  [shards] is accepted and ignored: the benchmark harness
    still passes it, and the next change to the benchmark deletes it.
    [slow_threshold_s] sets the slow-request log threshold in seconds
    (default: [CLARA_SLOW_MS] in milliseconds, else 1s).  [deadline_ms]
    is the default per-request budget (default: [CLARA_DEADLINE_MS],
    else unlimited; [<= 0] forces unlimited).
    [max_pending] bounds request lines admitted per batch, lines
    waiting on queued misses included (default 256);
    [max_clients] bounds held connections (default 64); both must be
    [>= 1].  [shadow_rate] is the shadow-evaluation sampling rate in
    [[0, 1]] (default: [CLARA_SHADOW_RATE], else 0 = disabled) and
    [shadow_seed] perturbs the sampling hash (default:
    [CLARA_SHADOW_SEED]).  [flight_capacity] is the flight recorder's ring
    size in records (default: [CLARA_FLIGHT], else 256; 0 disables
    recording) and [flight_dir] is where triggered dumps land (default:
    [CLARA_FLIGHT_DIR], else triggers only count).  [version] is the
    initial bundle-version token reported by [health] (default
    ["trained"]; pass {!Persist.Bundle.version} of the loaded manifest
    when warm-starting). *)
val create :
  ?cache_capacity:int ->
  ?shards:int ->
  ?slow_threshold_s:float ->
  ?deadline_ms:float ->
  ?max_pending:int ->
  ?max_clients:int ->
  ?shadow_rate:float ->
  ?shadow_seed:int ->
  ?flight_capacity:int ->
  ?flight_dir:string ->
  ?version:string ->
  Clara.Pipeline.models ->
  t

(** The bundle-version token currently serving (updated by a successful
    [reload]). *)
val version : t -> string

val corpus_names : unit -> string list

(** The CLI's default traffic profile (the mixed-protocol spec shared by
    [clara analyze] and the service). *)
val mixed_spec : Workload.spec

(** Resolve a workload name ([mixed]/[large]/[small]); [Error] lists the
    valid names. *)
val workload_named : string -> (Workload.spec, string) result

(** One request line in, one reply line out (no trailing newline).
    Never raises: protocol problems become ["ok":false] replies. *)
val handle_request : t -> string -> string

(** Handle a batch of request lines: plan them all, run the distinct
    misses' jobs to completion, and return the replies in request order
    — the loop's own path, driven synchronously. *)
val process_batch : t -> string list -> string list

(** Counters for [stats] and the bench harness. *)
val served : t -> int

(** Requests (and connections) answered with an overloaded reply. *)
val shed : t -> int

val cache_hits : t -> int
val cache_misses : t -> int

(** The server's quality-telemetry state (sketches, drift, SLOs). *)
val quality : t -> Quality.t

(** Evaluate pending shadow tasks now (also runs automatically after
    event-loop rounds and {!handle_request} when telemetry is on). *)
val drain_quality : t -> unit

(** Drain, then render the quality document ({!Quality.to_json_string}):
    what the [quality] socket command and [GET /quality] return. *)
val quality_json : ?now:float -> t -> string

(** Ask {!run} to drain and return (what the SIGTERM handler calls).
    Safe from a signal handler or another domain. *)
val request_drain : t -> unit

(** Has a drain been requested (and not yet completed)?  What the
    [/healthz] document reports as ["draining"]. *)
val draining : t -> bool

(** The server's flight recorder (always present; disabled when
    [flight_capacity] was 0). *)
val flight : t -> Obs.Flight.t

(** The flight snapshot document: what the [flight] socket command and
    [GET /flight.json] return. *)
val flight_json : t -> string

(** Bind [socket_path] (unlinking any stale socket), accept clients, and
    serve until a [shutdown] request arrives or a drain is requested
    (SIGTERM / {!request_drain}).  The loop is {!Evloop.run}
    (level-triggered rounds, per-connection state machines, reads split
    by {!Lineio.split}, coalesced writes through {!Lineio.write}): each
    round's lines are planned at once and the misses' jobs advance one
    slice per turn (see above).  A job still suspended when the loop
    stops is discontinued and its lines answered with an error.  The
    server adds its own pieces: SIGQUIT ({!Evloop.with_signal}, restored on return) dumps
    the flight rings on the next loop turn; before every poll (so after the previous round's
    replies left) it writes a requested flight dump and evaluates pending
    shadow tasks; an exception escaping a batch dumps the flight rings
    before propagating.  Logs its effective config ([serve.start]),
    accept/read/write errors and final counters ([serve.stop]) through
    {!Obs.Log} rather than dying or swallowing them. *)
val run : t -> socket_path:string -> unit
