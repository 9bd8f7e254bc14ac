(** Always-on black-box flight recorder for the serving path.

    One fixed-size ring of postmortem request records: the raw request
    line, the raw reply bytes, which route answered it (fast/slow), wall
    latency, trace id and a coarse outcome class.  Recording is zero-copy
    over the strings the server already built — a clip check, one record
    allocation and an O(1) slot write under the ring's mutex — so it
    stays inside the fast path's bench envelope (see
    [bench/main.exe flight]).  The mutex lets another domain (the HTTP
    exporter's [/flight]) snapshot while the serving loop records.

    On a {e trigger} (SIGQUIT, a slow request, a deadline_exceeded reply,
    an armed-fault hit, an uncaught server exception, or an explicit
    request) the ring dumps as JSONL: one header object, then one object
    per record, oldest first.  Every dump is a repro case —
    [clara replay] re-issues it against a bundle and byte-diffs the
    replies.  Triggered dumps are rate-limited and only written when a
    dump directory is configured ([dir] / [CLARA_FLIGHT_DIR]); otherwise
    triggers are counted but nothing touches the filesystem.
    {!dump_now} (operator-initiated) always writes, falling back to the
    temp directory.

    Record order ([seq]) is arrival order at the recording call sites;
    for a server driven deterministically it is identical under
    [CLARA_JOBS=1] and [=4].  Timestamps and latencies are measurement
    noise. *)

type record = {
  seq : int;  (* process-wide arrival order *)
  ts_s : float;  (* wall clock at record time *)
  trace : string;  (* request trace id *)
  path : string;  (* "fast" | "slow" *)
  latency_us : float;
  outcome : string;  (* "ok" | "error" | "overloaded" | "deadline" | "fault" *)
  request : string;  (* raw request line (clipped to [max_bytes]) *)
  reply : string;  (* raw reply bytes (clipped to [max_bytes]) *)
  truncated : bool;  (* request or reply was clipped: not replayable *)
}

type t

(** [create ~capacity ()] sizes the ring at [capacity] records in total.
    [capacity] defaults to [CLARA_FLIGHT] (else 256); 0 disables
    recording entirely.  [max_bytes] clips stored request/reply
    bytes ([CLARA_FLIGHT_MAX_BYTES], else 65536).  [dir] is where
    triggered dumps land ([CLARA_FLIGHT_DIR] when absent; no directory
    means triggers only count).  [min_dump_interval_s] rate-limits
    triggered dumps (default 30s). *)
val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?dir:string ->
  ?min_dump_interval_s:float ->
  unit ->
  t

(** Is recording on (capacity > 0)? *)
val enabled : t -> bool

(** Ring slots. *)
val capacity : t -> int

(** Records written since creation (>= what the ring still holds). *)
val recorded : t -> int

(** Append one record, overwriting the oldest once the ring is full.
    No-op when disabled. *)
val record :
  t ->
  trace:string ->
  path:string ->
  latency_us:float ->
  outcome:string ->
  request:string ->
  reply:string ->
  unit

(** Everything the ring currently holds — the newest [capacity]
    records — in [seq] (arrival) order. *)
val snapshot : t -> record list

(** One JSON document: config, trigger counts, and the full snapshot. *)
val to_json_string : t -> string

(** Write a dump — header line, then one line per record — to [oc]. *)
val dump_jsonl : t -> trigger:string -> out_channel -> unit

(** Write a dump to an explicit path (truncates).
    @raise Sys_error when the path cannot be opened. *)
val dump_to_file : t -> trigger:string -> string -> unit

(** Count a trigger and, when a dump directory is configured, recording
    is enabled and the rate limit allows, write a dump; returns its path
    when one was written. *)
val trigger : t -> string -> string option

(** Count a trigger and dump unconditionally (no rate limit; falls back
    to the temp directory when no dump directory is configured).  [None]
    only when recording is disabled or the write failed. *)
val dump_now : t -> trigger:string -> string option

(** Trigger counts seen so far, sorted by trigger name. *)
val triggered : t -> (string * int) list
