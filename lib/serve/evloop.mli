(** The serving skeleton shared by {!Server.run} and
    [Router.Front.run]: a level-triggered poll loop with per-connection
    state machines, plus the listener, signal and drain handling around
    it.  Its socket bytes go through {!Lineio}: replies leave by
    {!Lineio.write}, whose exact sent count advances the connection's
    write offset, and received bytes are cut into request lines by
    {!Lineio.split}, which scans each byte once and keeps the partial
    tail per connection.

    The abstraction is epoll-style even though the backend is
    [Unix.select] (portable, and the fd counts here are bounded by
    [max_clients]): each round flushes writable connections, accepts at
    most one new client, and batches every complete request line that
    arrived, in connection-accept order.  The round's lines go to the
    caller's [handle_batch] in one call; each connection gets its replies
    back in order, coalesced into one flush per round.  Blank lines are
    dropped; a final unterminated line is answered at EOF.

    Connection lifecycle: [Reading] (contributing lines to rounds) →
    [Closing] (peer half-closed with a final unterminated line or
    undrained replies; only flushes) → [Dead] (closed, detached).

    Fault points: [serve.accept], [serve.read] and [serve.write] fire
    inside the corresponding syscall wrappers (and [serve.write] on the
    rejected-connection reply), surfacing as the matching [Unix_error]s
    ([EMFILE]/[ECONNRESET]/[EPIPE]) routed through the callbacks.
    Disconnecting peers (EPIPE/ECONNRESET) go to [on_disconnect]; other
    I/O errors to [on_error] with a log-context string. *)

(** Stop/drain flags, safe to set from a signal handler or another
    domain. *)
type control

val control : unit -> control

(** Return from {!serve} after the current round, without a drain. *)
val request_stop : control -> unit

(** Stop accepting, answer what is buffered within a short grace
    window, then return from {!serve}.  What SIGTERM does. *)
val request_drain : control -> unit

(** Has a drain been requested? *)
val draining : control -> bool

(** [with_signal signal behavior f] runs [f] with [behavior] installed
    for [signal] and restores the previous behaviour on the way out, so
    one process can run several loops in turn.  Outside Unix, or where
    the signal cannot be set, [f] runs with the handlers as they are. *)
val with_signal : int -> Sys.signal_behavior -> (unit -> 'a) -> 'a

(** Bind [socket_path] (unlinking any stale socket), then serve rounds
    until [control] asks for a stop or a drain.  Around the loop: SIGPIPE
    is ignored and SIGTERM calls {!request_drain} (the previous handler
    is restored on return).  [on_tick] runs before every poll, in the
    serving and the drain phase alike; a flag set from another domain is
    noticed within one poll timeout (0.25s), a signal at once.

    A connection beyond [max_clients] is sent the one line [reject ()]
    returns and closed.  A drain logs [<name>.drain] with the client
    count, closes the listener and unlinks the socket, then keeps serving
    the held connections for up to 0.5s, ending early after an idle 50ms
    round.  On return every connection and the listener are closed and
    the socket file is gone. *)
val serve :
  name:string ->
  socket_path:string ->
  max_clients:int ->
  control:control ->
  handle_batch:(string list -> string list) ->
  on_tick:(unit -> unit) ->
  reject:(unit -> string) ->
  on_disconnect:(fn:string -> Unix.error -> unit) ->
  on_error:(ctx:string -> fn:string -> Unix.error -> unit) ->
  unit
