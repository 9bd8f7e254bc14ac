(** Blocking line I/O to one worker socket.

    The router holds {!Serve.Lineio.conn}s to its workers — one per
    (client connection, worker) for forwarded lines, one per worker for
    health probes and rollout control; these helpers are
    {!Serve.Lineio} with every
    [Unix_error] (and timeout, and EOF) mapped to [Error msg], so the
    caller can treat "this worker just died" as data.  All sockets are
    opened close-on-exec: respawned worker children must not inherit the
    router's descriptors. *)

(** Connect to a Unix-domain socket. *)
val connect : socket_path:string -> (Unix.file_descr, string) result

(** Write [lines] (newline-terminated) fully. *)
val send_lines : Unix.file_descr -> string list -> (unit, string) result

(** Read exactly [n] reply lines, starting from [residue] (bytes already
    read past the previous round's last newline), within [timeout_s]
    overall.  Returns the lines plus the new residue.  EOF before [n]
    lines is an error — a worker never half-answers a batch. *)
val read_lines :
  Unix.file_descr ->
  residue:string ->
  n:int ->
  timeout_s:float ->
  (string list * string, string) result

(** A worker-facing message for a {!Serve.Lineio.error}: what
    {!read_lines} and the router's down-marking log report. *)
val error_message : Serve.Lineio.error -> string

(** One-shot request over a fresh {!Serve.Lineio.conn}: connect, send
    one line, read one reply, close.  What {!Spawn} polls a starting
    worker with. *)
val oneshot : socket_path:string -> timeout_s:float -> string -> (string, string) result
