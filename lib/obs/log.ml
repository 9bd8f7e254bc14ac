(** Domain-safe structured JSONL logger (see log.mli). *)

type level = Debug | Info | Warn | Error

type value = Str of string | Num of float | Int of int | Bool of bool

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let threshold =
  Atomic.make
    (match Option.bind (Sys.getenv_opt "CLARA_LOG_LEVEL") level_of_string with
    | Some l -> level_rank l
    | None -> level_rank Info)

let set_level l = Atomic.set threshold (level_rank l)

let level () =
  match Atomic.get threshold with 0 -> Debug | 1 -> Info | 2 -> Warn | _ -> Error

let enabled l = level_rank l >= Atomic.get threshold

(* -- sinks --

   The live sink is one immutable record behind an Atomic; [emit] holds the
   sink's own mutex only around the write, so lines from racing domains
   never interleave.  A swap exchanges the record and closes the old file
   handle afterwards; a writer that loaded the old record finishes its line
   first because the exchange happens-before the close only via this
   thread, and out_channel writes after close raise — which emit
   swallows (losing at most the lines racing the swap, never crashing). *)

type sink = Stderr | File of string | Custom of (string -> unit) | Off

type impl = { emit : string -> unit; close : unit -> unit }

let make_impl = function
  | Off -> { emit = ignore; close = ignore }
  | Custom f ->
    let m = Mutex.create () in
    { emit =
        (fun line ->
          Mutex.lock m;
          (try f line with _ -> ());
          Mutex.unlock m);
      close = ignore }
  | Stderr ->
    let m = Mutex.create () in
    { emit =
        (fun line ->
          Mutex.lock m;
          (try
             output_string stderr line;
             output_char stderr '\n';
             flush stderr
           with Sys_error _ -> ());
          Mutex.unlock m);
      close = ignore }
  | File path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    let m = Mutex.create () in
    { emit =
        (fun line ->
          Mutex.lock m;
          (try
             output_string oc line;
             output_char oc '\n';
             flush oc
           with Sys_error _ -> ());
          Mutex.unlock m);
      close = (fun () -> try close_out oc with Sys_error _ -> ()) }

let sink_of_env () =
  match Sys.getenv_opt "CLARA_LOG" with
  | None | Some "" | Some "stderr" | Some "-" -> Stderr
  | Some ("off" | "none" | "0") -> Off
  | Some path -> File path

let current = Atomic.make (make_impl (sink_of_env ()))

let set_sink s =
  let old = Atomic.exchange current (make_impl s) in
  old.close ()

(* -- rendering -- *)

let add_value b = function
  | Str s ->
    Buffer.add_char b '"';
    Json.add_escaped b s;
    Buffer.add_char b '"'
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
    else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let timestamp () =
  let t = Unix.gettimeofday () in
  let tm = Unix.gmtime t in
  let ms = int_of_float ((t -. Float.of_int (int_of_float t)) *. 1000.0) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (max 0 (min 999 ms))

let log lvl ?(fields = []) msg =
  if enabled lvl then begin
    let b = Buffer.create 160 in
    Buffer.add_string b "{\"ts\":\"";
    Buffer.add_string b (timestamp ());
    Buffer.add_string b "\",\"level\":\"";
    Buffer.add_string b (level_name lvl);
    Buffer.add_string b "\",\"msg\":\"";
    Json.add_escaped b msg;
    Buffer.add_char b '"';
    (let trace = Span.current_trace () in
     if trace <> "" then begin
       Buffer.add_string b ",\"trace\":\"";
       Json.add_escaped b trace;
       Buffer.add_char b '"'
     end);
    (let span = Span.current_id () in
     if span >= 0 then begin
       Buffer.add_string b ",\"span\":";
       Buffer.add_string b (string_of_int span)
     end);
    List.iter
      (fun (k, v) ->
        Buffer.add_string b ",\"";
        Json.add_escaped b k;
        Buffer.add_string b "\":";
        add_value b v)
      fields;
    Buffer.add_char b '}';
    (Atomic.get current).emit (Buffer.contents b)
  end

let debug ?fields msg = log Debug ?fields msg
let info ?fields msg = log Info ?fields msg
let warn ?fields msg = log Warn ?fields msg
let error ?fields msg = log Error ?fields msg
