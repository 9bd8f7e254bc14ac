(** Nestable timed spans over a domain-safe ring buffer (see span.mli). *)

type event = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  trace : string;
  domain : int;
  depth : int;
  start_us : float;
  dur_us : float;
  alloc_w : float;
}

let truthy = function "" | "0" | "false" | "no" -> false | _ -> true

let enabled_flag =
  Atomic.make (match Sys.getenv_opt "CLARA_TRACE" with Some v -> truthy v | None -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let capacity =
  match Sys.getenv_opt "CLARA_TRACE_BUF" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n >= 16 -> n | _ -> 65536)
  | None -> 65536

(* -- the ring --

   One mutex guards the ring; it is held only for the O(1) slot write, so
   worker domains recording concurrently contend for nanoseconds.  Ids come
   from a lock-free counter at span start, which makes id order = start
   order even though events are pushed at span end. *)

let dummy =
  { id = -1; parent = -1; name = ""; cat = ""; trace = ""; domain = 0; depth = 0;
    start_us = 0.0; dur_us = 0.0; alloc_w = 0.0 }

let buf = Array.make capacity dummy
let buf_lock = Mutex.create ()
let written = ref 0 (* events pushed since last reset *)
let next_id = Atomic.make 0

let record ev =
  Mutex.lock buf_lock;
  buf.(!written mod capacity) <- ev;
  incr written;
  Mutex.unlock buf_lock

let reset () =
  Mutex.lock buf_lock;
  written := 0;
  Array.fill buf 0 capacity dummy;
  Mutex.unlock buf_lock

let dropped () =
  Mutex.lock buf_lock;
  let d = max 0 (!written - capacity) in
  Mutex.unlock buf_lock;
  d

let events () =
  Mutex.lock buf_lock;
  let n = min !written capacity in
  let first = !written - n in
  let out = Array.init n (fun i -> buf.((first + i) mod capacity)) in
  Mutex.unlock buf_lock;
  Array.sort (fun a b -> compare a.id b.id) out;
  Array.to_list out

(* -- recording -- *)

(* (id, depth) per open span, innermost first, per domain *)
let open_spans : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* -- trace correlation --

   A trace id names the logical request a span belongs to.  It lives in
   domain-local storage, so code fanning work out to other domains must
   re-establish it inside the task closure (the server does exactly that);
   within one domain it is inherited by every nested span. *)

let current_trace_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")

let current_trace () = Domain.DLS.get current_trace_key

let with_trace trace f =
  let old = Domain.DLS.get current_trace_key in
  Domain.DLS.set current_trace_key trace;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_trace_key old) f

let current_id () =
  match Domain.DLS.get open_spans with [] -> -1 | (id, _) :: _ -> id

(* Everything a span records from domain-local state: the trace id, the
   open-span stack and the profiler's published stack.  A cooperative
   job swaps it at every suspend and resume. *)
type context = { c_trace : string; c_spans : (int * int) list; c_prof : Prof.saved }

let save () =
  { c_trace = Domain.DLS.get current_trace_key; c_spans = Domain.DLS.get open_spans;
    c_prof = Prof.save () }

let restore c =
  Domain.DLS.set current_trace_key c.c_trace;
  Domain.DLS.set open_spans c.c_spans;
  Prof.restore c.c_prof

let now_us () = Unix.gettimeofday () *. 1e6
let alloc_words () = Gc.minor_words ()

(* The profiler piggybacks on span boundaries: when it is running, each
   enter/exit also maintains this domain's published name stack so the
   ticker domain can sample it (Prof owns that cell — DLS here is not
   readable cross-domain).  [pushed] pairs the pop with the push even if
   the profiler stops mid-span.  With both tracing and profiling off the
   hook costs two atomic loads. *)
let with_ ?(cat = "clara") name f =
  let span_on = Atomic.get enabled_flag in
  let prof_on = Prof.enabled () in
  if not (span_on || prof_on) then f ()
  else begin
    let pushed = prof_on && Prof.enter name in
    if not span_on then
      Fun.protect ~finally:(fun () -> if pushed then Prof.exit_ ()) f
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let stack = Domain.DLS.get open_spans in
      let parent, depth = match stack with [] -> (-1, 0) | (p, d) :: _ -> (p, d + 1) in
      Domain.DLS.set open_spans ((id, depth) :: stack);
      let a0 = alloc_words () in
      let t0 = now_us () in
      Fun.protect
        ~finally:(fun () ->
          let dur_us = now_us () -. t0 in
          let alloc_w = alloc_words () -. a0 in
          (match Domain.DLS.get open_spans with
          | _ :: rest -> Domain.DLS.set open_spans rest
          | [] -> ());
          record
            { id; parent; name; cat; trace = Domain.DLS.get current_trace_key;
              domain = (Domain.self () :> int); depth;
              start_us = t0; dur_us; alloc_w };
          if pushed then Prof.exit_ ())
        f
    end
  end

(* -- tree reconstruction -- *)

type tree = { span : event; children : tree list }

module Ints = Set.Make (Int)

let known_ids evs =
  List.fold_left (fun s (e : event) -> Ints.add e.id s) Ints.empty evs

let forest ?domain ?trace () =
  let evs = events () in
  let evs =
    match domain with None -> evs | Some d -> List.filter (fun e -> e.domain = d) evs
  in
  let evs =
    match trace with None -> evs | Some t -> List.filter (fun e -> e.trace = t) evs
  in
  let ids = known_ids evs in
  let by_parent = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = if e.parent >= 0 && Ints.mem e.parent ids then e.parent else -1 in
      Hashtbl.replace by_parent key (e :: Option.value (Hashtbl.find_opt by_parent key) ~default:[]))
    (List.rev evs) (* reversed so each bucket ends up in ascending id order *)
  ;
  let rec build (e : event) =
    let kids = Option.value (Hashtbl.find_opt by_parent e.id) ~default:[] in
    { span = e; children = List.map build kids }
  in
  (* roots: true roots plus orphans-by-eviction, in start order *)
  List.map build (Option.value (Hashtbl.find_opt by_parent (-1)) ~default:[])

let rec flatten_into acc depth t =
  let acc = (t.span.name, depth) :: acc in
  List.fold_left (fun acc c -> flatten_into acc (depth + 1) c) acc t.children

(** Preorder (name, depth) walk for structural assertions. *)
let flatten t = List.rev (flatten_into [] 0 t)

let orphans () =
  let evs = events () in
  let ids = known_ids evs in
  List.filter (fun e -> e.parent >= 0 && not (Ints.mem e.parent ids)) evs

(* -- Chrome trace export -- *)

let to_chrome_json () =
  let evs = events () in
  let t0 = List.fold_left (fun acc e -> Float.min acc e.start_us) Float.infinity evs in
  let t0 = if t0 = Float.infinity then 0.0 else t0 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"name\":\"%a\",\"cat\":\"%a\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"depth\":%d,\"alloc_words\":%.0f,\"trace\":\"%a\"}}"
        Json.add_escaped e.name Json.add_escaped e.cat (e.start_us -. t0) e.dur_us e.domain e.id
        e.parent e.depth e.alloc_w Json.add_escaped e.trace)
    evs;
  Buffer.add_string b
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%d}}" (dropped ()));
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  output_char oc '\n';
  close_out oc
