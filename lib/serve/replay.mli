(** Deterministic replay of flight-recorder dumps.

    A flight dump (see {!Obs.Flight}) is a self-contained repro case: the
    raw request lines the server answered and the raw reply bytes it sent.
    [clara replay DUMP --model BUNDLE] loads the dump, re-issues every
    replayable request against a freshly-created server over the bundle,
    and byte-diffs each reply against the recorded one.

    {b Equivalence rules.}  Replies are compared after masking exactly the
    volatile spans {!Fastpath.Entry} splices per request:

    - the [{"id":N,] prefix (a replayed request keeps its recorded id, but
      masking it makes the diff robust to salvage-path echoes);
    - the ["trace_id"] string value (trace counters restart per process);
    - the ["cached"] boolean (a recorded fast hit replays as a first-time
      miss);
    - the ["path"] string value (fast vs slow route, same reason).

    Everything else — field order, report bytes, error text — must match
    byte-for-byte.

    {b Skips.}  Three record classes are excluded from comparison but
    still counted: records whose stored bytes were clipped
    ([skipped_truncated] — not replayable), records whose outcome was
    environmental ([overloaded]/[deadline]/[fault]: [skipped_env] — the
    reply described the original process's load or armed faults, not the
    request), and requests whose command answers from live state
    ([stats], [metrics], [quality], [trace], [flight], [profile],
    [health], [shutdown]: [skipped_volatile]). *)

(** Parsed dump header. *)
type header = {
  h_trigger : string;  (** what caused the dump *)
  h_pid : int;  (** recording process *)
  h_declared : int;  (** record count the header declared *)
}

type divergence = {
  d_seq : int;
  d_request : string;
  d_expected : string;  (** recorded reply (raw, unmasked) *)
  d_got : string;  (** replayed reply (raw, unmasked) *)
}

type result = {
  total : int;
  compared : int;
  matched : int;
  diverged : divergence list;
  skipped_env : int;
  skipped_volatile : int;
  skipped_truncated : int;
}

(** Parse a [clara-flight-dump/1] JSONL file.  [Error] on IO failure, a
    missing/unknown schema, or any unparseable line. *)
val load : string -> (header * Obs.Flight.record list, string) Stdlib.result

(** Mask the volatile reply spans (id prefix, ["trace_id"], ["cached"],
    ["path"]) to ["*"].  Exposed for tests. *)
val normalize : string -> string

(** Does this request line name a command whose reply depends on live
    server state (and so cannot be byte-compared)? *)
val volatile_request : string -> bool

(** A server configured for determinism: no default deadline, no shadow
    sampling, no nested flight recording, an effectively-infinite slow
    threshold, and room for every line of a dump in one batch. *)
val server_for : ?shards:int -> ?cache_capacity:int -> Clara.Pipeline.models -> Server.t

(** Re-issue the records (in [seq] order) one at a time through
    {!Server.handle_request} and byte-diff modulo {!normalize}. *)
val replay : server:Server.t -> Obs.Flight.record list -> result

(** The result as one JSON line (divergences carry raw expected/got). *)
val to_json_string : result -> string
