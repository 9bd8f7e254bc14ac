(** Worker-process lifecycle: spawn, signal, reap.

    Workers are {e fresh processes}, not forks of the caller: the child
    is the current executable re-executed ([create_process] of
    [Sys.executable_name]) with a sentinel argv that
    {!worker_main_if_requested} recognizes.  A fresh exec sidesteps every
    multicore-fork hazard — the child gets its own runtime, its own
    [Util.Pool] (sized by the inherited [CLARA_JOBS]), and none of the
    parent's domains — and is exactly how a production router would run
    its fleet anyway.

    Every executable that spawns workers — the [clara] CLI (its [router]
    verb), the router tests, the topology soak, the router bench — must
    call {!worker_main_if_requested} as the very first thing in [main]:
    in the parent it returns immediately; in a worker child it loads the
    bundle, serves until shutdown/SIGTERM, and [exit]s without
    returning. *)

type t = {
  sp_name : string;
  sp_socket : string;
  sp_pid : int;
  mutable sp_reaped : bool;
}

(** In a worker child (argv starts with the sentinel): run the worker and
    [exit] — 0 on clean shutdown, 2 when the bundle fails to load.
    Otherwise: return immediately. *)
val worker_main_if_requested : unit -> unit

(** Spawn one worker serving [bundle] on [socket_path].  [quiet] (default
    [true]) silences the child's logs — harness stderr stays readable.
    The remaining options mirror {!Serve.Server.create}'s.  Returns once
    the child is forked; await the socket with {!wait_ready}. *)
val spawn :
  ?quiet:bool ->
  ?cache_capacity:int ->
  ?max_pending:int ->
  ?max_clients:int ->
  name:string ->
  socket_path:string ->
  bundle:string ->
  unit ->
  t

(** Poll until the worker answers a [ping] on its socket (or [timeout_s],
    default 10, elapses — [false]). *)
val wait_ready : ?timeout_s:float -> t -> bool

(** SIGKILL — the chaos harness's hammer.  Idempotent; reap afterwards. *)
val kill : t -> unit

(** SIGTERM — ask the worker to drain. *)
val terminate : t -> unit

(** Non-blocking reap ([WNOHANG]); [true] once the child is gone
    (then and on every later call). *)
val reap : t -> bool

(** Blocking reap; idempotent. *)
val wait : t -> unit

