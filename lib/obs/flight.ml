(** Always-on postmortem flight recorder (see flight.mli). *)

type record = {
  seq : int;
  ts_s : float;
  trace : string;
  path : string;
  shard : int;
  latency_us : float;
  outcome : string;
  request : string;
  reply : string;
  truncated : bool;
}

let dummy =
  { seq = -1; ts_s = 0.0; trace = ""; path = ""; shard = -1; latency_us = 0.0; outcome = "";
    request = ""; reply = ""; truncated = false }

(* One ring per shard: a mutex held only for the O(1) slot write, so
   recording on the serving path costs a clip check, one allocation and
   nanoseconds of lock hold. *)
type ring = { r_lock : Mutex.t; r_buf : record array; mutable r_written : int }

type t = {
  per_shard : int;  (* slots per ring; 0 = recording disabled *)
  max_bytes : int;  (* request/reply bytes kept per record before clipping *)
  rings : ring array;
  seq : int Atomic.t;
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

let default_capacity () =
  match Option.bind (Sys.getenv_opt "CLARA_FLIGHT") int_of_string_opt with
  | Some n when n >= 0 -> n
  | Some _ | None -> 64

let default_max_bytes () =
  match Option.bind (Sys.getenv_opt "CLARA_FLIGHT_MAX_BYTES") int_of_string_opt with
  | Some n when n >= 64 -> n
  | Some _ | None -> 65536

let create ?(shards = 1) ?capacity ?max_bytes ?dir ?(min_dump_interval_s = 30.0) () =
  if shards < 1 then invalid_arg "Flight.create: shards must be >= 1";
  let per_shard = match capacity with Some c -> max 0 c | None -> default_capacity () in
  let max_bytes = match max_bytes with Some b -> max 64 b | None -> default_max_bytes () in
  let dir = match dir with Some _ as d -> d | None -> Sys.getenv_opt "CLARA_FLIGHT_DIR" in
  { per_shard; max_bytes;
    rings =
      Array.init shards (fun _ ->
          { r_lock = Mutex.create ();
            r_buf = Array.make (max 1 per_shard) dummy;
            r_written = 0 });
    seq = Atomic.make 0; dir; min_dump_interval_s; dump_lock = Mutex.create ();
    last_dump_s = neg_infinity; dump_seq = 0; trig_lock = Mutex.create ();
    trig_counts = Hashtbl.create 8 }

let enabled t = t.per_shard > 0
let capacity t = t.per_shard * Array.length t.rings
let recorded t = Atomic.get t.seq

let clip t s = if String.length s > t.max_bytes then (String.sub s 0 t.max_bytes, true) else (s, false)

let record t ~shard ~trace ~path ~latency_us ~outcome ~request ~reply =
  if t.per_shard > 0 then begin
    let seq = Atomic.fetch_and_add t.seq 1 in
    let request, c1 = clip t request in
    let reply, c2 = clip t reply in
    let r =
      { seq; ts_s = Unix.gettimeofday (); trace; path; shard; latency_us; outcome; request;
        reply; truncated = c1 || c2 }
    in
    let n = Array.length t.rings in
    (* unkeyed records (shard < 0) spread round-robin by arrival *)
    let ring = t.rings.(if shard >= 0 then shard mod n else seq mod n) in
    Mutex.lock ring.r_lock;
    ring.r_buf.(ring.r_written mod t.per_shard) <- r;
    ring.r_written <- ring.r_written + 1;
    Mutex.unlock ring.r_lock;
    Metrics.inc m_records
  end

let snapshot t =
  let per_ring =
    Array.map
      (fun ring ->
        Mutex.lock ring.r_lock;
        let n = min ring.r_written t.per_shard in
        let first = ring.r_written - n in
        let out = Array.init n (fun i -> ring.r_buf.((first + i) mod t.per_shard)) in
        Mutex.unlock ring.r_lock;
        out)
      t.rings
  in
  let all = Array.concat (Array.to_list per_ring) in
  Array.sort (fun (a : record) b -> compare a.seq b.seq) all;
  Array.to_list all

(* -- JSON -- *)

let add_record_json b (r : record) =
  let e = Json.add_escaped in
  Printf.bprintf b
    "{\"seq\":%d,\"ts\":%.6f,\"trace\":\"%a\",\"path\":\"%a\",\"shard\":%d,\"latency_us\":%.1f,\"outcome\":\"%a\",\"truncated\":%b,\"request\":\"%a\",\"reply\":\"%a\"}"
    r.seq r.ts_s e r.trace e r.path r.shard r.latency_us e r.outcome r.truncated e r.request
    e r.reply

let triggered t =
  Mutex.lock t.trig_lock;
  let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.trig_counts [] in
  Mutex.unlock t.trig_lock;
  List.sort compare out

let to_json_string t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"enabled\":%b,\"capacity\":%d,\"shards\":%d,\"recorded\":%d,\"triggers\":{"
    (enabled t) (capacity t) (Array.length t.rings) (recorded t);
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
