(** Always-on postmortem flight recorder (see flight.mli). *)

type record = {
  seq : int;
  ts_s : float;
  trace : string;
  path : string;
  latency_us : float;
  outcome : string;
  request : string;
  reply : string;
  truncated : bool;
}

let dummy =
  { seq = -1; ts_s = 0.0; trace = ""; path = ""; latency_us = 0.0; outcome = "";
    request = ""; reply = ""; truncated = false }

(* One ring under one mutex, held only for the O(1) slot write, so
   recording on the serving path costs a clip check, one allocation and
   nanoseconds of lock hold.  The lock is there for readers: the HTTP
   exporter snapshots [/flight.json] from its own domain. *)
type t = {
  slots : int;  (* ring size; 0 = recording disabled *)
  max_bytes : int;  (* request/reply bytes kept per record before clipping *)
  lock : Mutex.t;
  buf : record array;
  mutable written : int;  (* records ever written = the next [seq] *)
  dir : string option;  (* where triggered dumps land; None = count only *)
  min_dump_interval_s : float;
  dump_lock : Mutex.t;
  mutable last_dump_s : float;
  mutable dump_seq : int;
  trig_lock : Mutex.t;
  trig_counts : (string, int) Hashtbl.t;
}

let m_records =
  Metrics.counter ~help:"Flight-recorder records written" "clara_flight_records_total"

(* Fixed trigger label set so the exposition stays bounded. *)
let m_trigger =
  let mk t =
    ( t,
      Metrics.counter ~help:"Flight-recorder dump triggers" ~labels:[ ("trigger", t) ]
        "clara_flight_triggers_total" )
  in
  let known =
    List.map mk [ "sigquit"; "slow_request"; "deadline"; "fault"; "exception"; "manual" ]
  in
  let other =
    Metrics.counter ~help:"Flight-recorder dump triggers" ~labels:[ ("trigger", "other") ]
      "clara_flight_triggers_total"
  in
  fun t -> match List.assoc_opt t known with Some c -> c | None -> other

let m_dumps = Metrics.counter ~help:"Flight-recorder dumps written" "clara_flight_dumps_total"

(* A record keeps its request and reply alive until the ring wraps, so
   every record still held at a minor collection is promoted: the cost
   of recording grows with the ring.  On warm fast-path hits over a
   12-key Zipf mix, 256 slots promote 36 words per hit and 512 slots
   71, enough to lift a routed p99 by a fifth. *)
let default_capacity () =
  match Option.bind (Sys.getenv_opt "CLARA_FLIGHT") int_of_string_opt with
  | Some n when n >= 0 -> n
  | Some _ | None -> 256

let default_max_bytes () =
  match Option.bind (Sys.getenv_opt "CLARA_FLIGHT_MAX_BYTES") int_of_string_opt with
  | Some n when n >= 64 -> n
  | Some _ | None -> 65536

let create ?capacity ?max_bytes ?dir ?(min_dump_interval_s = 30.0) () =
  let slots = match capacity with Some c -> max 0 c | None -> default_capacity () in
  let max_bytes = match max_bytes with Some b -> max 64 b | None -> default_max_bytes () in
  let dir = match dir with Some _ as d -> d | None -> Sys.getenv_opt "CLARA_FLIGHT_DIR" in
  { slots; max_bytes; lock = Mutex.create (); buf = Array.make (max 1 slots) dummy; written = 0;
    dir; min_dump_interval_s; dump_lock = Mutex.create ();
    last_dump_s = neg_infinity; dump_seq = 0; trig_lock = Mutex.create ();
    trig_counts = Hashtbl.create 8 }

let enabled t = t.slots > 0
let capacity t = t.slots

let recorded t =
  Mutex.lock t.lock;
  let n = t.written in
  Mutex.unlock t.lock;
  n

let clip t s = if String.length s > t.max_bytes then (String.sub s 0 t.max_bytes, true) else (s, false)

let record t ~trace ~path ~latency_us ~outcome ~request ~reply =
  if t.slots > 0 then begin
    let request, c1 = clip t request in
    let reply, c2 = clip t reply in
    let ts_s = Unix.gettimeofday () in
    Mutex.lock t.lock;
    let seq = t.written in
    t.buf.(seq mod t.slots) <-
      { seq; ts_s; trace; path; latency_us; outcome; request; reply; truncated = c1 || c2 };
    t.written <- seq + 1;
    Mutex.unlock t.lock;
    Metrics.inc m_records
  end

(* The ring holds the newest [min written slots] records; slot order from
   the oldest of them is [seq] order. *)
let snapshot t =
  Mutex.lock t.lock;
  let n = min t.written t.slots in
  let first = t.written - n in
  let out = List.init n (fun i -> t.buf.((first + i) mod t.slots)) in
  Mutex.unlock t.lock;
  out

(* -- JSON -- *)

let add_record_json b (r : record) =
  let e = Json.add_escaped in
  Printf.bprintf b
    "{\"seq\":%d,\"ts\":%.6f,\"trace\":\"%a\",\"path\":\"%a\",\"latency_us\":%.1f,\"outcome\":\"%a\",\"truncated\":%b,\"request\":\"%a\",\"reply\":\"%a\"}"
    r.seq r.ts_s e r.trace e r.path r.latency_us e r.outcome r.truncated e r.request
    e r.reply

let triggered t =
  Mutex.lock t.trig_lock;
  let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.trig_counts [] in
  Mutex.unlock t.trig_lock;
  List.sort compare out

let to_json_string t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"enabled\":%b,\"capacity\":%d,\"recorded\":%d,\"triggers\":{"
    (enabled t) (capacity t) (recorded t);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%a\":%d" Json.add_escaped k v)
    (triggered t);
  Buffer.add_string b "},\"records\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      add_record_json b r)
    (snapshot t);
  Buffer.add_string b "]}";
  Buffer.contents b

(* -- dumps -- *)

let dump_jsonl t ~trigger oc =
  let records = snapshot t in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"schema\":\"clara-flight-dump/1\",\"trigger\":\"%a\",\"ts\":%.6f,\"pid\":%d,\"capacity\":%d,\"recorded\":%d,\"records\":%d}\n"
    Json.add_escaped trigger (Unix.gettimeofday ()) (Unix.getpid ()) (capacity t) (recorded t)
    (List.length records);
  List.iter
    (fun r ->
      add_record_json b r;
      Buffer.add_char b '\n')
    records;
  Buffer.output_buffer oc b

let dump_to_file t ~trigger path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> dump_jsonl t ~trigger oc);
  Metrics.inc m_dumps

let fresh_dump_path t ~trigger dir =
  Mutex.lock t.dump_lock;
  t.dump_seq <- t.dump_seq + 1;
  let n = t.dump_seq in
  Mutex.unlock t.dump_lock;
  Filename.concat dir (Printf.sprintf "clara-flight-%d-%d-%s.jsonl" (Unix.getpid ()) n trigger)

let note t trigger =
  Mutex.lock t.trig_lock;
  Hashtbl.replace t.trig_counts trigger
    (1 + Option.value (Hashtbl.find_opt t.trig_counts trigger) ~default:0);
  Mutex.unlock t.trig_lock;
  Metrics.inc (m_trigger trigger)

let dump_now t ~trigger =
  note t trigger;
  if not (enabled t) then None
  else begin
    let dir = match t.dir with Some d -> d | None -> Filename.get_temp_dir_name () in
    let path = fresh_dump_path t ~trigger dir in
    match dump_to_file t ~trigger path with
    | () ->
      Mutex.lock t.dump_lock;
      t.last_dump_s <- Unix.gettimeofday ();
      Mutex.unlock t.dump_lock;
      Some path
    | exception Sys_error _ -> None
  end

let trigger t name =
  note t name;
  match t.dir with
  | None -> None  (* no dump directory configured: counted, not written *)
  | Some dir ->
    if not (enabled t) then None
    else begin
      let now = Unix.gettimeofday () in
      Mutex.lock t.dump_lock;
      let due = now -. t.last_dump_s >= t.min_dump_interval_s in
      if due then t.last_dump_s <- now;
      Mutex.unlock t.dump_lock;
      if not due then None
      else
        let path = fresh_dump_path t ~trigger:name dir in
        match dump_to_file t ~trigger:name path with
        | () -> Some path
        | exception Sys_error _ -> None
    end
