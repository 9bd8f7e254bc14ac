(** The line-delimited JSON protocol shared by the worker
    ({!Server}), the router ([Router.Front]), {!Replay} and {!Client}:
    the one module that reads request members.  A parsed line decodes
    into one {!request} record, which names the line's flow key; every
    reply is one {!Jsonl} object whose first three fields are always
    ["id"], ["ok"] and ["trace_id"]. *)

(** The workload an [analyze] request gets when it names none
    (["mixed"]). *)
val default_workload : string

(** What an [analyze] request names, with its flow key: a corpus NF
    (not yet looked up in the corpus), an inline ["p4lite"] program
    (compiled), a program that does not decode, or neither.  An inline
    program's key subject is ["p4lite:%08lx"] of the CRC-32 of the
    compiled element's pretty-print, so every spelling of one program —
    members in any order, defaults written out or left out — shares one
    key. *)
type target =
  | Nf of { name : string; key : string }
  | Program of { elt : Nf_lang.Ast.element; key : string }
  | Bad_program of string
  | No_target

type request = {
  req : Jsonl.t;  (** the parsed object, for command-specific members *)
  cmd : string option;  (** ["cmd"], else its alias ["op"] *)
  id : Jsonl.t;  (** [Null] when absent *)
  trace : string option;  (** the client's ["trace_id"] *)
  tenant : string;  (** ["default"] when absent *)
  deadline_ms : float option;
  workload : string;  (** {!default_workload} when absent *)
  target : target;  (** [No_target] unless [cmd] is ["analyze"] *)
}

(** Fill the record from a parsed line.  A string ["nf"] wins over
    ["p4lite"]. *)
val decode : Jsonl.t -> request

(** The record of a line that does not parse: [id], [trace] and
    [tenant] as far as {!Jsonl.salvage_member} finds them, so even a
    malformed request gets its id echoed; no command, no target. *)
val salvage : string -> request

(** The flow-cache key of an analysis: ["subject|workload"], where the
    subject is the NF name or an inline program's key subject.  Workers
    key their flow cache on it and the router places requests on it. *)
val flow_key : string -> string -> string

(** The request's [(id, trace)], where a missing trace is [mint ()] —
    the caller's generator ([t-N] in a worker, [r-N] in the router). *)
val identity : mint:(unit -> string) -> request -> Jsonl.t * string

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
