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
    [max_clients]): each turn flushes writable connections, accepts at
    most one new client, and batches every complete request line that
    arrived, in connection-accept order.  Blank lines are dropped; a
    final unterminated line is answered at EOF.

    {b The completion contract.}  A round's lines go to the handler's
    [handle_batch] in one call, which returns one reply {!slot} per
    line: filled now (what can be answered at once) or later (work the
    handler finishes in a later turn).  Each connection keeps a FIFO of
    its slots, and after every wake the loop writes the filled prefix of
    each FIFO, so every connection gets its replies in request order
    while a slow reply holds back only the lines behind it on its own
    connection.  Between waits the loop calls the handler's [service]
    with the readable fds among those it [watch]es; while [service]
    reports more work, the next wait does not block.

    Connection lifecycle: [Reading] (contributing lines to rounds) →
    [Closing] (peer half-closed with a final unterminated line or
    replies still owed or unwritten; only awaits and flushes) → [Dead]
    (closed, detached, reported to the handler's [on_close]).

    Fault points: [serve.accept], [serve.read] and [serve.write] fire
    inside the corresponding syscall wrappers (and [serve.write] on the
    rejected-connection reply), surfacing as the matching [Unix_error]s
    ([EMFILE]/[ECONNRESET]/[EPIPE]) routed through the callbacks.
    Disconnecting peers (EPIPE/ECONNRESET) go to [on_disconnect]; other
    I/O errors to [on_error] with a log-context string. *)

(** A reply owed to one request line. *)
type slot

(** A slot to be filled later. *)
val slot : unit -> slot

(** A slot already holding its reply line (no newline). *)
val filled : string -> slot

(** Give a slot its reply line.
    @raise Invalid_argument when it was filled already. *)
val fill : slot -> string -> unit

(** The reply, once filled. *)
val reply : slot -> string option

(** Stop/drain flags, safe to set from a signal handler or another
    domain. *)
type control

val control : unit -> control

(** Return from {!run} after the current round, without a drain. *)
val request_stop : control -> unit

(** Stop accepting, answer what is buffered within a short grace
    window, then return from {!run}.  What SIGTERM does. *)
val request_drain : control -> unit

(** Has a drain been requested? *)
val draining : control -> bool

(** [with_signal signal behavior f] runs [f] with [behavior] installed
    for [signal] and restores the previous behaviour on the way out, so
    one process can run several loops in turn.  Outside Unix, or where
    the signal cannot be set, [f] runs with the handlers as they are. *)
val with_signal : int -> Sys.signal_behavior -> (unit -> 'a) -> 'a

(** What a serving process plugs into {!run}.  Connections are named by
    an id unique for the loop's lifetime.
    - [handle_batch]: a round's lines, grouped by connection in accept
      order; one slot per line, in the same order.
    - [watch]: extra fds to wait on for reading (a router's upstreams).
    - [service]: runs after every wait with the readable [watch]ed fds;
      [true] while the handler has work it wants to continue at once.
    - [on_close]: a connection went away (its unfilled slots are
      dropped when filled).
    - [on_tick]: runs before every wait. *)
type handler = {
  handle_batch : (int * string list) list -> slot list;
  watch : unit -> Unix.file_descr list;
  service : Unix.file_descr list -> bool;
  on_close : int -> unit;
  on_tick : unit -> unit;
}

(** Bind [socket_path] (unlinking any stale socket), then serve until
    [control] asks for a stop or a drain.  Around the loop: SIGPIPE is
    ignored and SIGTERM calls {!request_drain} (the previous handler is
    restored on return).  A flag set from another domain is noticed
    within one poll timeout (0.25s), a signal at once.

    A connection beyond [max_clients] is sent the one line [reject ()]
    returns and closed.  A drain logs [<name>.drain] with the client
    count, closes the listener and unlinks the socket, then keeps
    serving the held connections: it reads for up to 0.5s, then stops
    reading and waits only for the replies still owed; it ends early
    after an idle 50ms wait with nothing owed.  On return every
    connection and the listener are closed and the socket file is gone;
    a slot still unfilled then is the handler's to settle. *)
val run :
  name:string ->
  socket_path:string ->
  max_clients:int ->
  control:control ->
  handler:handler ->
  reject:(unit -> string) ->
  on_disconnect:(fn:string -> Unix.error -> unit) ->
  on_error:(ctx:string -> fn:string -> Unix.error -> unit) ->
  unit
