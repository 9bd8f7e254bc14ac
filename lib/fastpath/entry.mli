(** Flow entries: the pre-serialized reply bytes the slow path installs
    and the fast path writes straight to the socket.

    An entry escapes and renders the invariant parts of an [analyze]
    reply once at install time — the NF name, workload name and the full
    report — leaving only the per-request fields (id, trace id, the
    cached flag and the serving path) to splice at reply time.  Rendering
    matches {!Serve.Jsonl.to_string}'s field formatting byte-for-byte, so
    a fast-path reply equals the slow-path reply for the same request
    modulo exactly the [cached]/[path] values. *)

type t

(** [pred_compute]/[pred_memory] carry the model's raw predictions so
    fast-path hits can still feed shadow evaluation without re-parsing
    the rendered report (default 0.0 when the installer has none). *)
val make :
  ?pred_compute:float -> ?pred_memory:float ->
  nf:string -> workload:string -> report:string -> unit -> t

val nf : t -> string
val pred_compute : t -> float
val pred_memory : t -> float

(** Splice a reply into [b] with the id token and trace-id contents taken
    as raw substrings ([id_len = 0] renders a [null] id; the trace span
    must not need escaping — the scanner only accepts such traces). *)
val render_into :
  Buffer.t ->
  t ->
  id_src:string -> id_off:int -> id_len:int ->
  trace_src:string -> trace_off:int -> trace_len:int ->
  cached:bool -> path:string ->
  unit

(** Allocating convenience used by the slow path: [id] is the rendered
    JSON id token ([""] for null); [trace] is escaped as needed. *)
val render : t -> id:string -> trace:string -> cached:bool -> path:string -> string
