(** Minimal hand-rolled HTTP/1.1 telemetry exporter.

    Serves read-only endpoints over loopback TCP:

    - [GET /healthz]    -> small liveness JSON.  With a [health] renderer
                           wired at {!create} it is the server's document
                           (uptime, bundle version, pid, draining
                           flag); otherwise a built-in
                           [{"ok":true,"uptime_s":..,"pid":..}].  Either
                           way it is allocation-light and takes no
                           registry lock — safe to probe at any rate
    - [GET /metrics]    -> Prometheus text exposition ({!Obs.Metrics},
                           after an {!Obs.Runtime.sample}) — byte-for-byte
                           the same renderer as the socket [metrics] command
    - [GET /trace.json] -> Chrome-trace JSON of the span ring buffer
    - [GET /quality]    -> prediction-quality JSON (error sketches, drift,
                           SLO burn rates) when a [quality] renderer was
                           wired at {!create}; 404 otherwise — byte-for-byte
                           what the socket [quality] command embeds
    - [GET /flight.json]   -> flight-recorder snapshot when a [flight]
                           renderer was wired ({!Server.flight_json});
                           404 otherwise
    - [GET /profile.folded] -> the continuous profiler's collapsed
                           flamegraph text ({!Obs.Prof.folded}; pipe it
                           into [flamegraph.pl]).  Empty until sampling
                           has started

    Same discipline as {!Server.run}: a single-threaded select loop, one
    short-lived connection per request ([Connection: close]), no analysis
    work — so a scrape can never contend with the pool fan-out.  Unknown
    paths get 404, non-GET methods 405, garbage 400.  Zero dependencies:
    the parser reads one request head (request line + headers, 8 KiB cap)
    and ignores the rest. *)

type t

(** Bind [127.0.0.1:port] ([port = 0] picks an ephemeral port — read it
    back with {!port}).  [backlog] defaults to 16.  [quality] renders
    the [/quality] document on demand (typically
    [fun () -> Server.quality_json server]); without it the path 404s.
    [health] overrides the built-in [/healthz] JSON; [flight] renders
    [/flight.json] (typically [fun () -> Server.flight_json server]),
    without it that path 404s.
    @raise Unix.Unix_error when binding fails (e.g. port in use). *)
val create :
  ?backlog:int ->
  ?quality:(unit -> string) ->
  ?health:(unit -> string) ->
  ?flight:(unit -> string) ->
  port:int ->
  unit ->
  t

(** The bound TCP port. *)
val port : t -> int

(** Accept-and-respond loop; returns after {!stop} (checked between
    selects, <= 0.25s latency).  Closes the listener on exit. *)
val run : t -> unit

(** Ask a running {!run} loop to exit.  Idempotent, any domain. *)
val stop : t -> unit
