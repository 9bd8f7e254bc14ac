(** Newline-framed I/O over Unix-domain sockets: the one module that
    writes JSON-lines bytes ({!write}), splits them into lines
    ({!split}) and holds a client-side line connection ({!conn}).
    {!Evloop} serves through the first two; {!Client}, the router's
    worker connections and {!Http}'s response writer are the other
    callers.  Every socket is opened close-on-exec, so spawned worker
    processes never inherit a caller's descriptors. *)

(** Why a call stopped short: the overall timeout ran out, the peer
    closed the connection, or a socket call — a connect included —
    failed (["fn: message"]). *)
type error = Timeout | Closed | Io of string

(** Connect to a Unix-domain socket; [Error "fn: message"] on failure. *)
val connect : socket_path:string -> (Unix.file_descr, string) result

(** [write fd s off len]: one write of [len] bytes of [s] from [off],
    retried while a signal interrupts it before any byte went out
    ([EINTR]).  Returns the count sent, so a caller advancing an offset
    by it sends each byte exactly once.
    @raise Unix.Unix_error when the write fails. *)
val write : Unix.file_descr -> string -> int -> int -> int

(** Write all of [s], looping on {!write}.
    @raise Unix.Unix_error when a write fails. *)
val write_all : Unix.file_descr -> string -> unit

(** Write [lines], each newline-terminated, in one payload;
    [Error "fn: message"] when a write fails. *)
val send_lines : Unix.file_descr -> string list -> (unit, string) result

(** [split partial s ~max emit] scans [s] once.  Each newline completes
    a line — [partial]'s bytes, then those before the newline — that
    goes to [emit] without its newline, until [max] lines went out; the
    bytes after the last one are appended to [partial] unscanned.
    Returns the count emitted.  Blank lines and ['\r'] pass through. *)
val split : Buffer.t -> string -> max:int -> (string -> unit) -> int

(** Read exactly [n] lines (without their newlines), starting from
    [residue] — bytes already read past the previous call's last
    newline — within [timeout_s] overall.  Returns the lines plus the
    new residue.  A wait or read a signal interrupted is retried. *)
val read_lines :
  Unix.file_descr ->
  residue:string ->
  n:int ->
  timeout_s:float ->
  (string list * string, error) result

(** A persistent connection to one socket path: the fd opens on the
    first {!send}, and the residue carries over between {!recv}s.  Any
    error closes it; the next {!send} reconnects. *)
type conn

val conn : socket_path:string -> conn

(** Send [lines] in one payload, connecting first when closed. *)
val send : conn -> string list -> (unit, error) result

(** The next [n] lines within [timeout_s]; [Closed] when not open. *)
val recv : conn -> n:int -> timeout_s:float -> (string list, error) result

(** The open fd, for a caller that waits on it in its own poll set. *)
val fd : conn -> Unix.file_descr option

(** One read on an open connection the caller's poll found readable:
    each line it completes goes to [emit], in order, and the bytes after
    the last one stay as residue.  [Error Closed] at EOF or when not
    open. *)
val read_ready : conn -> (string -> unit) -> (unit, error) result

(** One line out, one line back: {!send} then {!recv}. *)
val call : conn -> timeout_s:float -> string -> (string, error) result

(** Close the fd and drop the residue (idempotent). *)
val close : conn -> unit
