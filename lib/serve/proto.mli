(** The line-delimited JSON protocol shared by the worker
    ({!Server}), the router ([Router.Front]), {!Replay} and {!Client}:
    how a request names its command and identity, and how a reply is
    laid out.  Every reply is one {!Jsonl} object whose first three
    fields are always ["id"], ["ok"] and ["trace_id"]. *)

(** The request's command: ["cmd"], else its alias ["op"]. *)
val cmd : Jsonl.t -> string option

(** The workload name an [analyze] request asks for: its ["workload"]
    member, else {!default_workload} (["mixed"]). *)
val workload : Jsonl.t -> string

val default_workload : string

(** The flow-cache key of an analysis: ["subject|workload"], where the
    subject is the NF name (or an inline program's identity).  Workers key
    their flow cache and the router places requests on it. *)
val flow_key : string -> string -> string

(** The request's identity [(id, trace)]: read from [req] when the line
    parsed, else salvaged from the raw [line] ({!Jsonl.salvage_member}),
    so even a malformed request gets its id echoed.  A missing id is
    [Null]; a missing or non-string trace is [mint ()] — the caller's
    generator ([t-N] in a worker, [r-N] in the router). *)
val identity : mint:(unit -> string) -> ?req:Jsonl.t -> string -> Jsonl.t * string

(** [{"id":..,"ok":true,"trace_id":..}] followed by [fields]. *)
val ok_reply : trace:string -> Jsonl.t -> (string * Jsonl.t) list -> string

(** [{"id":..,"ok":false,"trace_id":..,"error":msg}] followed by, in
    this order, the typed flags that are set — ["overloaded"] (retry
    after backing off), ["deadline_exceeded"] (do not retry: the budget
    was the request's own), ["unavailable"] (a router's worker died;
    the retry re-hashes) — then ["valid"] (the names a request could
    have used) and [extra]. *)
val error_reply :
  ?overloaded:bool ->
  ?deadline:bool ->
  ?unavailable:bool ->
  ?valid:string list ->
  ?extra:(string * Jsonl.t) list ->
  trace:string ->
  Jsonl.t ->
  string ->
  string

(** [Some error] when a parsed reply is flagged ["overloaded"] or
    ["unavailable"] — the server saying "retry later" — with its
    ["error"] text (the flag name when it has none). *)
val retry_later : Jsonl.t -> string option
