(** Clara insight service (see server.mli). *)

(* -- replies, misses and jobs --

   A reply is built together with what it says: its outcome class and its
   trace id.  The flight recorder, its dump triggers and the SLO
   availability count read those, never the rendered bytes. *)

type outcome = [ `Ok | `Error | `Deadline | `Overloaded | `Fault ]
type reply = { text : string; outcome : outcome; trace : string }

(* A cache miss: the analysis job it joins (deduplicated by [key]) and
   what its reply needs. *)
type miss = {
  id : Jsonl.t;
  trace : string;
  key : string;
  elt : Nf_lang.Ast.element;
  spec : Workload.spec;
  nf_label : string;
  wname : string;
  deadline : float option;  (* absolute Clock seconds; None = no budget *)
}

(* What one deduplicated analysis job produced: a fresh flow entry (the
   reply bytes pre-serialized once, carrying the raw predictions for
   shadow evaluation), or a failure that remembers whether an injected
   fault caused it. *)
type job_outcome = Report of Fastpath.Entry.t | Failed of { msg : string; fault : bool }

(* One reply line as the accounting sees it: [latency_s] runs from
   batch start to when the reply bytes existed, and [offer] is a
   slow-path answer to offer for shadow evaluation when the line is
   accounted. *)
type line_record = {
  line : string;
  reply : reply;
  path : string;
  latency_s : float;
  offer : (Jsonl.t * string * Fastpath.Entry.t) option;
}

(* One batch of lines: each line's reply slot and, once the reply
   exists, its record, in line order; the first [admitted] were
   admitted, the rest shed. *)
type cell = { slot : Evloop.slot; mutable record : line_record option }

type round = {
  now0 : float;
  admitted : int;
  mutable cells : cell list;
  mutable unfilled : int;
}

(* A line waiting on a job, and the job: the flow table it was planned
   against (a reload swaps the table; the job then installs nothing),
   its waiters (newest first) and its cooperative run, which keeps the
   compiled models it was planned with. *)
type waiter = { round : round; cell : cell; line : string; miss : miss }

type job = {
  j_key : string;
  j_flows : Fastpath.Entry.t Fastpath.Shards.t;
  j_run : job_outcome Util.Coop.t;
  mutable waiters : waiter list;
}

(* [flows]/[compiled] are mutable for hot reload: the swap happens
   inside the serial planning path, so every request line is answered
   entirely by one bundle version — never a torn mix.  [compiled] is
   the one analysis engine: the models with the LSTM bound to
   preallocated scratch and a per-block prediction memo, and the
   scale-out GBDT flattened to node arrays.  Jobs run one at a time on
   the loop's domain, so it needs no lock, and a block is predicted
   once per worker whatever its keys.  The loop's domain is also the
   only one that probes or installs [flows], which therefore takes no
   lock either. *)
type t = {
  mutable flows : Fastpath.Entry.t Fastpath.Shards.t;  (* installed flow entries *)
  mutable compiled : Clara.Pipeline.compiled;
  mutable version : string;  (* bundle version token (Persist.Bundle.version) *)
  quality : Quality.t;  (* shadow evaluation, error sketches, drift, SLOs *)
  slow_s : float;
  deadline_s : float option;  (* default per-request budget; None = unlimited *)
  max_pending : int;  (* request lines admitted per batch before shedding *)
  max_clients : int;  (* accepted connections before connection-level shedding *)
  fast_buf : Buffer.t;  (* fast-path render scratch (process_batch is single-caller) *)
  flight : Obs.Flight.t;  (* always-on postmortem ring (capacity 0 disables) *)
  mutable served_count : int;
  mutable shed_count : int;
  control : Evloop.control;  (* shutdown / drain flags *)
  mutable flight_dump_requested : bool;  (* set by the SIGQUIT handler *)
  jobs : job Queue.t;  (* the miss FIFO; its head runs *)
  by_key : (string, job) Hashtbl.t;  (* queued jobs a later miss joins *)
  mutable waiting : int;  (* lines waiting on jobs; they count against max_pending *)
}

(* Default slow-request threshold: CLARA_SLOW_MS, else 1s. *)
let default_slow_s () =
  match Option.bind (Sys.getenv_opt "CLARA_SLOW_MS") float_of_string_opt with
  | Some ms when ms > 0.0 -> ms /. 1000.0
  | Some _ | None -> 1.0

(* Default request deadline: CLARA_DEADLINE_MS, else none. *)
let default_deadline_s () =
  match Option.bind (Sys.getenv_opt "CLARA_DEADLINE_MS") float_of_string_opt with
  | Some ms when ms > 0.0 -> Some (ms /. 1000.0)
  | Some _ | None -> None

let create ?(cache_capacity = 64) ?shards:_ ?slow_threshold_s ?deadline_ms
    ?(max_pending = 256) ?(max_clients = 64) ?shadow_rate ?shadow_seed ?flight_capacity
    ?flight_dir ?(version = "trained") models =
  if max_pending < 1 then invalid_arg "Server.create: max_pending must be >= 1";
  if max_clients < 1 then invalid_arg "Server.create: max_clients must be >= 1";
  let slow_s = match slow_threshold_s with Some s -> s | None -> default_slow_s () in
  let deadline_s =
    match deadline_ms with
    | Some ms when ms > 0.0 -> Some (ms /. 1000.0)
    | Some _ -> None (* an explicit 0 disables any environment default *)
    | None -> default_deadline_s ()
  in
  { flows = Fastpath.Shards.create ~capacity:cache_capacity ();
    compiled = Clara.Pipeline.compile models;
    version;
    quality = Quality.create ?rate:shadow_rate ?seed:shadow_seed ();
    slow_s; deadline_s; max_pending; max_clients; fast_buf = Buffer.create 1024;
    flight = Obs.Flight.create ?capacity:flight_capacity ?dir:flight_dir ();
    served_count = 0; shed_count = 0; control = Evloop.control ();
    flight_dump_requested = false; jobs = Queue.create (); by_key = Hashtbl.create 16;
    waiting = 0 }

let served t = t.served_count
let shed t = t.shed_count
let version t = t.version
let cache_hits t = Fastpath.Shards.hits t.flows
let cache_misses t = Fastpath.Shards.misses t.flows
let request_drain t = Evloop.request_drain t.control
let draining t = Evloop.draining t.control
let flight t = t.flight
let flight_json t = Obs.Flight.to_json_string t.flight
let quality t = t.quality
let drain_quality t = Quality.drain t.quality
let quality_json ?now t = Quality.to_json_string ?now t.quality

(* The id token as rendered in the reply ("null" for an absent id):
   the shadow-sampling hash input, identical on both serving paths. *)
let id_token = function Jsonl.Null -> "null" | id -> Jsonl.to_string id

(* Offer one selected analyze answer for shadow evaluation.  Inline
   programs are not in the corpus, so shadow evaluation cannot re-derive
   their ground truth; they are never offered. *)
let maybe_shadow t ~id ~key entry =
  if Quality.enabled t.quality
     && (not (String.starts_with ~prefix:"p4lite:" key))
     && Quality.should_shadow t.quality ~id ~key
  then
    Quality.offer t.quality ~nf:(Fastpath.Entry.nf entry)
      ~pred_compute:(Fastpath.Entry.pred_compute entry)
      ~pred_memory:(Fastpath.Entry.pred_memory entry)

let corpus_names () = List.map (fun e -> e.Nf_lang.Ast.name) (Nf_lang.Corpus.all ())

(* -- service metrics -- *)

let m_requests = Obs.Metrics.counter ~help:"Request lines handled" "clara_serve_requests_total"
let m_errors = Obs.Metrics.counter ~help:"Error replies sent" "clara_serve_errors_total"
let m_cache_hits = Obs.Metrics.counter ~help:"Report-cache hits" "clara_serve_cache_hits_total"

let m_cache_misses =
  Obs.Metrics.counter ~help:"Report-cache misses" "clara_serve_cache_misses_total"

let m_in_flight =
  Obs.Metrics.gauge ~help:"Request lines currently being processed" "clara_serve_in_flight"

let m_latency =
  Obs.Metrics.histogram
    ~help:
      "Per-request wall latency in seconds, from batch start to when the line's reply \
       bytes exist: at planning for hits and immediate replies, after the analysis \
       fan-out for misses"
    ~buckets:(Obs.Metrics.latency_buckets ()) "clara_serve_request_seconds"

let m_shed =
  Obs.Metrics.counter ~help:"Requests shed with an overloaded reply" "clara_serve_shed_total"

let m_deadline =
  Obs.Metrics.counter ~help:"Requests answered with deadline_exceeded"
    "clara_serve_deadline_total"

let m_disconnects =
  Obs.Metrics.counter ~help:"Clients that vanished mid-conversation (EPIPE/ECONNRESET)"
    "clara_serve_client_disconnects_total"

(* -- workloads -- *)

let mixed_spec =
  { Workload.default with Workload.proto = Workload.Mixed; Workload.n_packets = 800 }

(* The workloads a request may name, in the order errors list them. *)
let workloads =
  [ (Proto.default_workload, mixed_spec);
    ("large", { Workload.large_flows with Workload.n_packets = 800 });
    ("small", { Workload.small_flows with Workload.n_packets = 800 }) ]

let workload_named name =
  match List.assoc_opt name workloads with
  | Some spec -> Ok spec
  | None ->
    Error
      (Printf.sprintf "unknown workload %S (one of: %s)" name
         (String.concat ", " (List.map fst workloads)))

(* -- request trace ids --

   Every request line gets a trace id: the client's ["trace_id"] when it
   sent one, else a generated ["t-N"].  The id is echoed in the reply,
   carried (via [Obs.Span.with_trace]) into every span the request
   triggers — re-established inside pool-task closures, since DLS does
   not cross domains — and stamped on slow-request log lines, so
   [{"cmd":"trace","trace_id":...}] can pull one request's span subtree
   out of the ring buffer. *)

let trace_counter = Atomic.make 0

let fresh_trace () = Printf.sprintf "t-%d" (1 + Atomic.fetch_and_add trace_counter 1)

(* -- replies -- *)

let outcome_label : outcome -> string = function
  | `Ok -> "ok"
  | `Error -> "error"
  | `Deadline -> "deadline"
  | `Overloaded -> "overloaded"
  | `Fault -> "fault"

let ok_reply ~trace id fields = { text = Proto.ok_reply ~trace id fields; outcome = `Ok; trace }

(* [`Overloaded]/[`Deadline] render the two machine-actionable error
   flags: a client should retry an overloaded reply after backing off
   (the condition is the server's), and should NOT retry a deadline reply
   (the budget was the request's own).  [`Fault] marks an error an
   injected fault caused — an environmental outcome replay cannot and
   should not reproduce — and renders as a plain error. *)
let err_reply ?valid ?(outcome = `Error) ~trace id msg =
  Obs.Metrics.inc m_errors;
  (match outcome with
  | `Overloaded -> Obs.Metrics.inc m_shed
  | `Deadline -> Obs.Metrics.inc m_deadline
  | `Ok | `Error | `Fault -> ());
  { text =
      Proto.error_reply ?valid ~overloaded:(outcome = `Overloaded)
        ~deadline:(outcome = `Deadline) ~trace id msg;
    outcome;
    trace }

(* Analyze replies render through the flow entry's pre-serialized bytes on
   every route.  The slow path goes through [Entry.render] with the id
   printed by [Jsonl.to_string]; the fast path splices the raw id token
   from the request line.  Both produce the same field order (id, ok,
   trace_id, nf, workload, cached, path, report) with identical escaping,
   so the two replies for one request differ in exactly the
   [cached]/[path] values. *)
let analyze_reply ~trace id ~cached ~path entry =
  { text =
      Fastpath.Entry.render entry
        ~id:(match id with Jsonl.Null -> "" | id -> Jsonl.to_string id)
        ~trace ~cached ~path;
    outcome = `Ok;
    trace }

(* -- request planning -- *)

(* A planned request line: answered by the fast path, already answered,
   a slow-path cache hit (its reply rendered already; the shadow offer
   waits for the render stage so offers keep plan order), or an analysis
   for the run stage. *)
type plan =
  | Fast of reply
  | Ready of reply
  | Hit of { reply : reply; id : Jsonl.t; key : string; entry : Fastpath.Entry.t }
  | Miss of miss

(* Per-request budget: the request's own ["deadline_ms"] wins (0 or
   negative disables), else the server default.  Stored as an absolute
   time so every later stage compares against the same clock. *)
let deadline_of t ~now (r : Proto.request) =
  let budget_s =
    match r.deadline_ms with
    | Some ms when ms > 0.0 -> Some (ms /. 1000.0)
    | Some _ -> None
    | None -> t.deadline_s
  in
  Option.map (fun s -> now +. s) budget_s

let expired deadline = match deadline with Some d -> Obs.Clock.now_s () > d | None -> false

let deadline_reply ~trace id =
  err_reply ~outcome:`Deadline ~trace id "deadline exceeded before the analysis finished"

let plan_analyze t ~now ~trace (r : Proto.request) =
  let id = r.id in
  match workload_named r.workload with
  | Error msg -> Ready (err_reply ~trace id msg)
  | Ok spec -> (
    let plan elt nf_label key =
      match Fastpath.Shards.find t.flows key with
      | Some entry ->
        Obs.Metrics.inc m_cache_hits;
        Hit { reply = analyze_reply ~trace id ~cached:true ~path:"slow" entry; id; key; entry }
      | None ->
        Obs.Metrics.inc m_cache_misses;
        Miss
          { id; trace; key; elt; spec; nf_label; wname = r.workload;
            deadline = deadline_of t ~now r }
    in
    match r.target with
    | Nf { name; key } -> (
      match Nf_lang.Corpus.find name with
      | elt -> plan elt name key
      | exception Failure _ ->
        Ready
          (err_reply ~valid:(corpus_names ()) ~trace id (Printf.sprintf "unknown NF %S" name)))
    | Program { elt; key } -> plan elt elt.Nf_lang.Ast.name key
    | Bad_program msg -> Ready (err_reply ~trace id ("bad p4lite program: " ^ msg))
    | No_target -> Ready (err_reply ~trace id "analyze wants \"nf\" or \"p4lite\""))

(* The [trace] command: one request's span subtree, rebuilt from the ring
   buffer by trace-id filter.  Structure only — names, categories, order —
   plus wall-clock durations for eyeballing; empty when tracing is off or
   the ring has already evicted the request. *)

let rec tree_json (node : Obs.Span.tree) =
  Jsonl.Obj
    [ ("name", Jsonl.Str node.Obs.Span.span.Obs.Span.name);
      ("cat", Jsonl.Str node.Obs.Span.span.Obs.Span.cat);
      ("dur_us", Jsonl.Num node.Obs.Span.span.Obs.Span.dur_us);
      ("children", Jsonl.Arr (List.map tree_json node.Obs.Span.children)) ]

(* -- the fast path --

   A repeat [analyze] query never builds a JSON tree: the raw line is
   scanned in place (strict subset of the JSONL grammar — anything the
   scanner rejects falls through to the full parser below), the flow
   table is probed, and on a hit the pre-rendered reply bytes are spliced
   together with the request's own id/trace tokens.  Guards keep the two
   routes byte-compatible:

   - an armed [jsonl.parse] fault forces the slow path, so fault-draw
     sequences are identical whether or not the cache is warm;
   - the id must be a canonical scalar (round-trips through parse/print
     unchanged) so splicing it verbatim matches [Jsonl.to_string];
   - the workload name must be one the server knows, the NF must be a
     plain string, and [p4lite] requests always take the slow path;
   - a probe miss counts nothing — the slow path's [Shards.find] counts
     the miss — so each line still counts exactly one lookup outcome.

   Cache hits never consulted the deadline before the split and still do
   not: a hit is answered from memory well inside any budget. *)
exception Not_fast

(* The scan: the NF name, workload name, id span ([(0, 0)] when absent:
   render null) and trace span ([None]: mint one) of a plain [analyze]
   line, or [Not_fast]. *)
let scan_analyze line =
  let open Fastpath.Scan in
  let need = function Some x -> x | None -> raise_notrace Not_fast in
  if Obs.Fault.armed "jsonl.parse" then raise_notrace Not_fast;
  let cmd = need (match member line "cmd" with Some _ as c -> c | None -> member line "op") in
  if not (span_is line cmd "\"analyze\"") || Option.is_some (member line "p4lite") then
    raise_notrace Not_fast;
  let nf_off, nf_len = need (Option.bind (member line "nf") (string_contents line)) in
  let wname =
    match member line "workload" with
    | None -> Proto.default_workload
    | Some span ->
      let w_off, w_len = need (string_contents line span) in
      let w = String.sub line w_off w_len in
      if List.mem_assoc w workloads then w else raise_notrace Not_fast
  in
  let id_span =
    match member line "id" with
    | None -> (0, 0)
    | Some span -> if canonical_scalar line span then span else raise_notrace Not_fast
  in
  let trace_span =
    Option.map (fun span -> need (string_contents line span)) (member line "trace_id")
  in
  (String.sub line nf_off nf_len, wname, id_span, trace_span)

let fast_track t ~now line =
  match scan_analyze line with
  | exception Not_fast -> None
  | nf, wname, (id_off, id_len), trace_span -> (
    let key = Proto.flow_key nf wname in
    match Fastpath.Shards.probe t.flows key with
    | None -> None
    | Some entry ->
      t.served_count <- t.served_count + 1;
      Obs.Metrics.inc m_requests;
      Obs.Metrics.inc m_cache_hits;
      let b = t.fast_buf in
      Buffer.clear b;
      let trace, t_off, t_len, trace_src =
        match trace_span with
        | Some (t_off, t_len) -> (String.sub line t_off t_len, t_off, t_len, line)
        | None ->
          let trace = fresh_trace () in
          (trace, 0, String.length trace, trace)
      in
      Fastpath.Entry.render_into b entry ~id_src:line ~id_off ~id_len ~trace_src
        ~trace_off:t_off ~trace_len:t_len ~cached:true ~path:"fast";
      (* Quality telemetry costs one float compare when disabled, keeping
         the rate-0 fast path inside its bench envelope. *)
      if Quality.enabled t.quality then begin
        Quality.record_fast_latency t.quality ~nf:(Fastpath.Entry.nf entry)
          (Obs.Clock.now_s () -. now);
        let id = if id_len = 0 then "null" else String.sub line id_off id_len in
        maybe_shadow t ~id ~key entry
      end;
      Some (Fast { text = Buffer.contents b; outcome = `Ok; trace }))

(* -- hot reload --

   [{"cmd":"reload","bundle":DIR}] swaps the serving models for the
   bundle in DIR without dropping a request: the load (salvaging torn
   optional components), the version computation and the swap all run in
   the serial planning path, so any request line — in this batch or any
   other — is answered entirely by one version.  A failed load, or a
   version differing from the caller's optional ["expect"] token (the
   negotiation handshake: the caller peeked the bundle's manifest first),
   changes nothing: the old models keep serving and the reply says so.
   The flow cache restarts empty on success — its entries are renders of
   the previous version. *)

let m_reloads =
  Obs.Metrics.counter ~help:"Successful hot reloads" "clara_serve_reloads_total"

let m_reload_failures =
  Obs.Metrics.counter ~help:"Rejected hot reloads (old models kept serving)"
    "clara_serve_reload_failures_total"

let reload_reply t ~trace id req =
  match Jsonl.str_member "bundle" req with
  | None -> err_reply ~trace id "reload wants \"bundle\" (a model-bundle directory)"
  | Some dir -> (
    let injected = Obs.Fault.fired "persist.read" in
    match Persist.Bundle.load_salvage ~dir with
    | Error e ->
      Obs.Metrics.inc m_reload_failures;
      Obs.Log.warn
        ~fields:
          [ ("bundle", Obs.Log.Str dir);
            ("error", Obs.Log.Str (Persist.Wire.error_to_string e));
            ("version", Obs.Log.Str t.version) ]
        "serve.reload_failed";
      (* a load the armed [persist.read] point broke is environmental *)
      let outcome = if Obs.Fault.fired "persist.read" > injected then `Fault else `Error in
      err_reply ~outcome ~trace id
        (Printf.sprintf "reload failed, still serving version %s: %s" t.version
           (Persist.Wire.error_to_string e))
    | Ok (b, dropped) -> (
      let next = Persist.Bundle.version b.Persist.Bundle.manifest in
      match Jsonl.str_member "expect" req with
      | Some want when want <> next ->
        Obs.Metrics.inc m_reload_failures;
        err_reply ~trace id
          (Printf.sprintf
             "reload version mismatch: bundle %s is version %s, caller expected %s (still \
              serving %s)"
             dir next want t.version)
      | Some _ | None ->
        let capacity = Fastpath.Shards.capacity t.flows in
        t.compiled <- Clara.Pipeline.compile b.Persist.Bundle.models;
        t.flows <- Fastpath.Shards.create ~capacity ();
        (* queued jobs finish on the old models; a later miss starts anew *)
        Hashtbl.reset t.by_key;
        let previous = t.version in
        t.version <- next;
        Obs.Metrics.inc m_reloads;
        Obs.Log.info
          ~fields:
            [ ("bundle", Obs.Log.Str dir);
              ("version", Obs.Log.Str next);
              ("previous", Obs.Log.Str previous);
              ("dropped_components", Obs.Log.Int (List.length dropped)) ]
          "serve.reloaded";
        ok_reply ~trace id
          [ ("reloaded", Jsonl.Bool true);
            ("version", Jsonl.Str next);
            ("previous", Jsonl.Str previous);
            ("dropped", Jsonl.Num (float_of_int (List.length dropped))) ]))

let plan_line_slow t ~now line =
  t.served_count <- t.served_count + 1;
  Obs.Metrics.inc m_requests;
  match Jsonl.parse line with
  | Error cause ->
    (* Even an unparseable line gets its id (and trace id) echoed back when
       one can be salvaged, so pipelined clients keep request/reply
       correlation. *)
    let id, trace = Proto.identity ~mint:fresh_trace (Proto.salvage line) in
    let outcome, msg =
      match cause with `Malformed msg -> (`Error, msg) | `Injected msg -> (`Fault, msg)
    in
    Ready (err_reply ~outcome ~trace id ("malformed JSON: " ^ msg))
  | Ok req -> (
    let r = Proto.decode req in
    let id, trace = Proto.identity ~mint:fresh_trace r in
    Obs.Span.with_trace trace @@ fun () ->
    let ok fields = Ready (ok_reply ~trace id fields) in
    let num n = Jsonl.Num (float_of_int n) in
    match r.cmd with
    | Some "ping" -> ok [ ("pong", Jsonl.Bool true) ]
    | Some "list" -> ok [ ("nfs", Jsonl.Arr (List.map (fun s -> Jsonl.Str s) (corpus_names ()))) ]
    | Some "stats" ->
      ok
        [ ("served", num t.served_count);
          ("cache_hits", num (Fastpath.Shards.hits t.flows));
          ("cache_misses", num (Fastpath.Shards.misses t.flows));
          ("cache_length", num (Fastpath.Shards.length t.flows));
          ("cache_capacity", num (Fastpath.Shards.capacity t.flows));
          ("cache_installs", num (Fastpath.Shards.installs t.flows));
          ("cache_evictions", num (Fastpath.Shards.evictions t.flows)) ]
    | Some "metrics" ->
      (* Snapshot under the registry locks, render outside them: a slow
         reader never holds the instruments hostage. *)
      Obs.Runtime.sample ();
      let snap = Obs.Metrics.snapshot () in
      ok [ ("metrics", Jsonl.Str (Obs.Metrics.render_snapshot snap)) ]
    | Some "health" ->
      (* One line of liveness for a fronting router: enough to decide
         membership (draining), attribute replies (version) and manage
         the process (pid) without scraping /metrics. *)
      ok
        [ ("version", Jsonl.Str t.version);
          ("draining", Jsonl.Bool (draining t));
          ("pid", num (Unix.getpid ()));
          ("served", num t.served_count);
          ("shed", num t.shed_count) ]
    | Some "reload" -> Ready (reload_reply t ~trace id r.req)
    | Some "trace" -> (
      (* The queried id is the request's own ["trace_id"]. *)
      match r.trace with
      | None -> Ready (err_reply ~trace id "trace wants \"trace_id\"")
      | Some wanted ->
        ok
          [ ("queried", Jsonl.Str wanted);
            ("tracing", Jsonl.Bool (Obs.Span.enabled ()));
            ("spans", Jsonl.Arr (List.map tree_json (Obs.Span.forest ~trace:wanted ()))) ])
    | Some "quality" ->
      (* Drain first so everything offered by earlier lines is visible
         in the same deterministic order it was enqueued. *)
      ok [ ("quality", Jsonl.Str (quality_json t)) ]
    | Some "flight" ->
      (* On-demand snapshot; an optional "dump" member also writes the
         ring as a JSONL dump to that path on the server side. *)
      let dumped =
        match Jsonl.str_member "dump" r.req with
        | None -> []
        | Some path -> (
          match Obs.Flight.dump_to_file t.flight ~trigger:"manual" path with
          | () -> [ ("dumped", Jsonl.Str path) ]
          | exception Sys_error msg -> [ ("dump_error", Jsonl.Str msg) ])
      in
      ok (("flight", Jsonl.Str (Obs.Flight.to_json_string t.flight)) :: dumped)
    | Some "profile" ->
      ok
        [ ("profile", Jsonl.Str (Obs.Prof.to_json_string ()));
          ("folded", Jsonl.Str (Obs.Prof.folded ())) ]
    | Some "shutdown" ->
      Evloop.request_stop t.control;
      ok [ ("stopping", Jsonl.Bool true) ]
    | Some "analyze" -> plan_analyze t ~now ~trace r
    | Some other -> Ready (err_reply ~trace id (Printf.sprintf "unknown cmd %S" other))
    | None -> Ready (err_reply ~trace id "missing \"cmd\""))

let split_at n l =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] l

let failed e =
  Failed
    { msg = Printexc.to_string e;
      fault = (match e with Obs.Fault.Injected _ -> true | _ -> false) }

(* -- the batch: plan -> run -> render --

   [submit] answers one batch of lines — an event-loop round, or one
   [process_batch] call — with one reply slot per line.  Plan turns
   every admitted line into a [plan] and fills its slot at once, all but
   the misses.  Run: each distinct miss becomes a job in one FIFO (a
   later miss on a queued key joins that job), and [work] runs the head
   job one cooperative slice at a time ({!Util.Coop}), so the event loop
   answers hits between slices.  Render: a finished job installs its
   flow entry and fills its waiting lines' slots.  A line's latency is
   its own, from batch start to when its reply bytes exist.

   A batch is accounted (latency histogram, quality telemetry,
   slow-request log, flight recorder) once every one of its replies
   exists, in plan order, so it leaves the same records in the same
   order however its misses interleave with later batches. *)

(* One reply line's accounting.  An admitted line's own latency feeds the
   histogram, the latency SLO and, past the threshold, the slow-request
   log.  Every line counts availability by its own outcome and leaves a
   postmortem record (when the ring is enabled) classed the same way;
   a deadline or fault outcome also pulls the matching dump trigger. *)
let account t ~n_lines ~admitted r =
  if admitted then begin
    Obs.Metrics.observe m_latency r.latency_s;
    if Quality.enabled t.quality then Quality.record_request_latency t.quality r.latency_s;
    if r.latency_s > t.slow_s then
      Obs.Log.warn
        ~fields:
          [ ("trace_id", Obs.Log.Str r.reply.trace);
            ("latency_s", Obs.Log.Num r.latency_s);
            ("threshold_s", Obs.Log.Num t.slow_s);
            ("batch_lines", Obs.Log.Int n_lines) ]
        "serve.slow_request"
  end;
  if Quality.enabled t.quality then Quality.record_reply t.quality ~ok:(r.reply.outcome = `Ok);
  if Obs.Flight.enabled t.flight then begin
    (match r.reply.outcome with
    | `Deadline -> ignore (Obs.Flight.trigger t.flight "deadline")
    | `Fault -> ignore (Obs.Flight.trigger t.flight "fault")
    | `Ok | `Error | `Overloaded -> ());
    Obs.Flight.record t.flight ~trace:r.reply.trace ~path:r.path
      ~latency_us:(r.latency_s *. 1e6) ~outcome:(outcome_label r.reply.outcome)
      ~request:r.line ~reply:r.reply.text
  end

(* Shadow offers first, in plan order; then the admitted lines' records;
   then the shed lines' — an overload burst is exactly the moment the
   black box exists for. *)
let close_round t round =
  let n_lines = round.admitted in
  Obs.Metrics.add_gauge m_in_flight (-.float_of_int n_lines);
  let records = List.map (fun c -> Option.get c.record) round.cells in
  round.cells <- [];
  if Quality.enabled t.quality then
    List.iter
      (fun r ->
        Option.iter (fun (id, key, entry) -> maybe_shadow t ~id:(id_token id) ~key entry) r.offer)
      records;
  let slow = ref false in
  List.iteri
    (fun i r ->
      if i < n_lines then begin
        account t ~n_lines ~admitted:true r;
        if r.latency_s > t.slow_s then slow := true
      end)
    records;
  if !slow then ignore (Obs.Flight.trigger t.flight "slow_request");
  List.iteri (fun i r -> if i >= n_lines then account t ~n_lines ~admitted:false r) records

let release t round =
  round.unfilled <- round.unfilled - 1;
  if round.unfilled = 0 then close_round t round

let fill t round cell record =
  cell.record <- Some record;
  Evloop.fill cell.slot record.reply.text;
  release t round

(* Load shedding: a line past the [max_pending] admission bound is
   answered immediately with an explicit retryable [overloaded] error
   (id and trace id still salvaged from the raw text) instead of queuing
   unbounded work behind the misses. *)
let shed_record t ~now0 line =
  t.served_count <- t.served_count + 1;
  t.shed_count <- t.shed_count + 1;
  Obs.Metrics.inc m_requests;
  let id, trace = Proto.identity ~mint:fresh_trace (Proto.salvage line) in
  let reply =
    err_reply ~outcome:`Overloaded ~trace id
      (Printf.sprintf "overloaded: server admits %d request lines per batch" t.max_pending)
  in
  { line; reply; path = "slow"; latency_s = Obs.Clock.now_s () -. now0; offer = None }

(* A waiting line's reply, and the answer to offer for shadow
   evaluation. *)
let answer t w (reply, offer) =
  t.waiting <- t.waiting - 1;
  fill t w.round w.cell
    { line = w.line; reply; path = "slow"; latency_s = Obs.Clock.now_s () -. w.round.now0; offer }

(* A finished job's reply to one waiter.  A report that arrived too late
   still answers [deadline_exceeded]; its entry was installed for the
   next asker all the same. *)
let job_reply m = function
  | Report entry when not (expired m.deadline) ->
    (analyze_reply ~trace:m.trace m.id ~cached:false ~path:"slow" entry, Some (m.id, m.key, entry))
  | Report _ -> (deadline_reply ~trace:m.trace m.id, None)
  | Failed { msg; fault } ->
    ( err_reply ~outcome:(if fault then `Fault else `Error) ~trace:m.trace m.id
        ("analysis failed: " ^ msg),
      None )

(* The analysis task of one job, on the compiled models current when it
   was planned.  The trace id is installed inside the body so the job's
   spans carry it across every suspension.  [pool.task] is the analysis
   fault point: its draws are keyed by the job's index among its batch's
   new jobs, so a batch's outcomes do not depend on scheduling. *)
let analysis ~k compiled m () =
  Obs.Span.with_trace m.trace @@ fun () ->
  try
    Obs.Fault.guard ~k "pool.task";
    let ins = Clara.Pipeline.analyze_compiled compiled m.elt m.spec in
    Report
      (Fastpath.Entry.make ~pred_compute:ins.Clara.Insights.predicted_compute
         ~pred_memory:ins.Clara.Insights.predicted_memory ~nf:m.nf_label ~workload:m.wname
         ~report:(Clara.Insights.render ins) ())
  with e -> failed e

(* A miss joins the queued job for its key, or starts one on the compiled
   models current now: a reload later swaps them, and the job keeps the
   ones it was planned on. *)
let join t ~fresh round cell line m =
  let job =
    match Hashtbl.find_opt t.by_key m.key with
    | Some j -> j
    | None ->
      let k = !fresh in
      incr fresh;
      let j =
        { j_key = m.key; j_flows = t.flows; j_run = Util.Coop.create (analysis ~k t.compiled m);
          waiters = [] }
      in
      Queue.push j t.jobs;
      Hashtbl.replace t.by_key m.key j;
      j
  in
  job.waiters <- { round; cell; line; miss = m } :: job.waiters;
  t.waiting <- t.waiting + 1

let submit t lines =
  Obs.Span.with_ ~cat:"serve" "serve.batch" @@ fun () ->
  let now0 = Obs.Clock.now_s () in
  let n = List.length lines in
  let admitted, overflow = split_at (max 0 (t.max_pending - t.waiting)) lines in
  (* one extra count, held until the cells are listed *)
  let round = { now0; admitted = n - List.length overflow; cells = []; unfilled = n + 1 } in
  let cell () = { slot = Evloop.slot (); record = None } in
  Obs.Metrics.add_gauge m_in_flight (float_of_int round.admitted);
  (* shed lines are answered first (they mint their trace ids before the
     admitted lines do); the round lists them last, in line order *)
  let shed =
    List.map
      (fun line ->
        let c = cell () in
        fill t round c (shed_record t ~now0 line);
        c)
      overflow
  in
  let fresh = ref 0 in
  let plan_one line =
    let c = cell () in
    let plan =
      match fast_track t ~now:now0 line with
      | Some plan -> plan
      | None -> plan_line_slow t ~now:now0 line
    in
    let record reply path offer =
      fill t round c { line; reply; path; latency_s = Obs.Clock.now_s () -. now0; offer }
    in
    (match plan with
    | Fast reply -> record reply "fast" None
    | Ready reply -> record reply "slow" None
    | Hit { reply; id; key; entry } -> record reply "slow" (Some (id, key, entry))
    | Miss m when expired m.deadline ->
      (* the budget ran out during planning: never a job *)
      record (deadline_reply ~trace:m.trace m.id) "slow" None
    | Miss m -> join t ~fresh round c line m);
    c
  in
  let cells = List.map plan_one admitted @ shed in
  round.cells <- cells;
  release t round;
  List.map (fun c -> c.slot) cells

(* Waiters whose budget ran out are answered [deadline_exceeded] at once;
   a job no line waits on any more is dropped if it has not started. *)
let expire t =
  if t.waiting > 0 then begin
    let late = ref false in
    Queue.iter
      (fun j ->
        if List.exists (fun w -> expired w.miss.deadline) j.waiters then begin
          let gone, live = List.partition (fun w -> expired w.miss.deadline) j.waiters in
          j.waiters <- live;
          late := true;
          List.iter
            (fun w -> answer t w (deadline_reply ~trace:w.miss.trace w.miss.id, None))
            (List.rev gone)
        end)
      t.jobs;
    if !late then begin
      let keep = Queue.create () in
      Queue.iter
        (fun j ->
          if j.waiters = [] && not (Util.Coop.started j.j_run) then begin
            if Hashtbl.find_opt t.by_key j.j_key == Some j then Hashtbl.remove t.by_key j.j_key
          end
          else Queue.push j keep)
        t.jobs;
      Queue.clear t.jobs;
      Queue.transfer keep t.jobs
    end
  end

let finish_job t j outcome =
  (match Hashtbl.find_opt t.by_key j.j_key with
  | Some j' when j' == j -> Hashtbl.remove t.by_key j.j_key
  | Some _ | None -> ());
  (match outcome with
  | Report entry when t.flows == j.j_flows -> Fastpath.Shards.install t.flows j.j_key entry
  | Report _ | Failed _ -> ());
  List.iter (fun w -> answer t w (job_reply w.miss outcome)) (List.rev j.waiters);
  j.waiters <- []

(* One slice of the head job; [true] while jobs remain. *)
let work t =
  expire t;
  (match Queue.peek_opt t.jobs with
  | None -> ()
  | Some j -> (
    match Util.Coop.step j.j_run with
    | None -> ()
    | Some outcome ->
      ignore (Queue.pop t.jobs);
      finish_job t j outcome));
  not (Queue.is_empty t.jobs)

(* The loop stopped: a suspended job is discontinued (its finalizers
   close its spans), and every line still waiting is answered
   retry-later, as shedding does: the stop was the server's, not the
   request's. *)
let abandon t =
  Queue.iter
    (fun j ->
      Util.Coop.cancel j.j_run;
      List.iter
        (fun w ->
          answer t w
            ( err_reply ~outcome:`Overloaded ~trace:w.miss.trace w.miss.id
                "overloaded: server stopped before the analysis finished",
              None ))
        (List.rev j.waiters);
      j.waiters <- [])
    t.jobs;
  Queue.clear t.jobs;
  Hashtbl.reset t.by_key

let process_batch t lines =
  let slots = submit t lines in
  while work t do
    ()
  done;
  List.map (fun s -> Option.get (Evloop.reply s)) slots

let handle_request t line =
  match process_batch t [ line ] with
  | [ reply ] ->
    if Quality.enabled t.quality then drain_quality t;
    reply
  | _ -> assert false

(* -- the socket service -- *)

let run t ~socket_path =
  (* SIGQUIT is the classic black-box trigger: dump the flight ring on
     the next loop turn (EINTR wakes the select) and keep serving.  The
     previous handler is restored on the way out so tests can run
     several servers in one process. *)
  Evloop.with_signal Sys.sigquit (Sys.Signal_handle (fun _ -> t.flight_dump_requested <- true))
  @@ fun () ->
  Obs.Log.info
    ~fields:
      [ ("socket", Obs.Log.Str socket_path);
        ("jobs", Obs.Log.Int (Util.Pool.size ()));
        ("cache_capacity", Obs.Log.Int (Fastpath.Shards.capacity t.flows));
        ("slow_threshold_s", Obs.Log.Num t.slow_s);
        ( "deadline_ms",
          match t.deadline_s with
          | Some s -> Obs.Log.Num (s *. 1000.0)
          | None -> Obs.Log.Str "none" );
        ("max_pending", Obs.Log.Int t.max_pending);
        ("max_clients", Obs.Log.Int t.max_clients);
        ("shadow_rate", Obs.Log.Num (Quality.rate t.quality));
        ("tracing", Obs.Log.Bool (Obs.Span.enabled ())) ]
    "serve.start";
  let io_fields ~fn err =
    [ ("error", Obs.Log.Str (Unix.error_message err)); ("fn", Obs.Log.Str fn) ]
  in
  (* An error or disconnect while a serve-side fault point is armed is an
     armed-fault hit: ask the black box for a (rate-limited) dump. *)
  let maybe_fault_trigger () =
    if
      Obs.Fault.armed "serve.read" || Obs.Fault.armed "serve.write"
      || Obs.Fault.armed "serve.accept"
    then ignore (Obs.Flight.trigger t.flight "fault")
  in
  (* An exception escaping a batch is a server bug: dump the black box
     (its last records are the requests in flight) before the crash
     propagates. *)
  let handle_batch batches =
    try submit t (List.concat_map snd batches)
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      (match Obs.Flight.dump_now t.flight ~trigger:"exception" with
      | Some path ->
        Obs.Log.warn
          ~fields:
            [ ("error", Obs.Log.Str (Printexc.to_string e)); ("dump", Obs.Log.Str path) ]
          "serve.exception"
      | None ->
        Obs.Log.warn
          ~fields:[ ("error", Obs.Log.Str (Printexc.to_string e)) ]
          "serve.exception");
      Printexc.raise_with_backtrace e bt
  in
  (* Before every poll, so after the previous round's flush: shadow
     evaluation runs strictly after the replies left (ground truth is
     cheap but not free, and the client should not wait on it). *)
  let on_tick () =
    if t.flight_dump_requested then begin
      t.flight_dump_requested <- false;
      match Obs.Flight.dump_now t.flight ~trigger:"sigquit" with
      | Some path -> Obs.Log.info ~fields:[ ("dump", Obs.Log.Str path) ] "serve.flight_dump"
      | None -> ()
    end;
    if Quality.enabled t.quality then drain_quality t
  in
  (* Hits and errors are answered in their round; the misses' jobs run
     one slice per turn, and the loop waits without blocking while any
     is queued. *)
  let handler =
    { Evloop.handle_batch; watch = (fun () -> []); service = (fun _ -> work t);
      on_close = ignore; on_tick }
  in
  Evloop.run ~name:"serve" ~socket_path ~max_clients:t.max_clients ~control:t.control ~handler
    ~reject:(fun () ->
      t.shed_count <- t.shed_count + 1;
      (err_reply ~outcome:`Overloaded ~trace:(fresh_trace ()) Jsonl.Null
         (Printf.sprintf "overloaded: server at its %d-connection limit" t.max_clients))
        .text)
    (* A peer that vanished mid-conversation is the client's lifecycle,
       not a server fault: count it, log it at info, move on.  Anything
       else on a client socket still warns. *)
    ~on_disconnect:(fun ~fn err ->
      maybe_fault_trigger ();
      Obs.Metrics.inc m_disconnects;
      Obs.Log.info ~fields:(io_fields ~fn err) "serve.client_disconnected")
    ~on_error:(fun ~ctx ~fn err ->
      maybe_fault_trigger ();
      Obs.Log.warn ~fields:(io_fields ~fn err) ctx);
  abandon t;
  on_tick ();
  Obs.Log.info
    ~fields:
      [ ("served", Obs.Log.Int t.served_count);
        ("shed", Obs.Log.Int t.shed_count);
        ("drained", Obs.Log.Bool (draining t));
        ("cache_hits", Obs.Log.Int (Fastpath.Shards.hits t.flows));
        ("cache_misses", Obs.Log.Int (Fastpath.Shards.misses t.flows)) ]
    "serve.stop"
