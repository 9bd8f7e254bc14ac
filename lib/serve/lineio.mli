(** Blocking newline-framed I/O over a Unix-domain socket: the client
    side of the JSON-lines protocol, shared by {!Client}, the router's
    worker connections ([Router.Upstream]) and {!Http}'s response
    writer.  Every socket is opened close-on-exec, so spawned worker
    processes never inherit a caller's descriptors. *)

(** Why a read stopped short: the overall timeout ran out, the peer
    closed the connection, or a socket call failed (["fn: message"]). *)
type error = Timeout | Closed | Io of string

(** Connect to a Unix-domain socket; [Error "fn: message"] on failure. *)
val connect : socket_path:string -> (Unix.file_descr, string) result

(** Write all of [s], looping over short writes and retrying writes a
    signal interrupted ([EINTR]), so each byte goes out exactly once.
    @raise Unix.Unix_error when a write fails. *)
val write_all : Unix.file_descr -> string -> unit

(** Write [lines], each newline-terminated, in one payload;
    [Error "fn: message"] when a write fails. *)
val send_lines : Unix.file_descr -> string list -> (unit, string) result

(** Read exactly [n] lines (without their newlines), starting from
    [residue] — bytes already read past the previous call's last
    newline — within [timeout_s] overall.  Returns the lines plus the
    new residue.  Each received byte is scanned and copied once; a wait
    or read a signal interrupted is retried. *)
val read_lines :
  Unix.file_descr ->
  residue:string ->
  n:int ->
  timeout_s:float ->
  (string list * string, error) result
