(** Bounded training-telemetry series (see series.mli). *)

type t = {
  s_name : string;
  s_run : int;
  cap : int;
  lock : Mutex.t;
  steps : int array;
  values : float array;
  mutable count : int; (* points recorded since the run opened *)
}

let max_runs = 64

(* name -> runs, newest first *)
let registry : (string, t list) Hashtbl.t = Hashtbl.create 16
let reg_lock = Mutex.create ()

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let create ?(capacity = 4096) name =
  let cap = max 1 capacity in
  Mutex.lock reg_lock;
  let runs = Option.value (Hashtbl.find_opt registry name) ~default:[] in
  let s_run = match runs with [] -> 1 | s :: _ -> s.s_run + 1 in
  let s =
    { s_name = name; s_run; cap; lock = Mutex.create ();
      steps = Array.make cap 0; values = Array.make cap 0.0; count = 0 }
  in
  Hashtbl.replace registry name (s :: take (max_runs - 1) runs);
  Mutex.unlock reg_lock;
  s

let name s = s.s_name
let run s = s.s_run

let record s ~step v =
  Mutex.lock s.lock;
  s.steps.(s.count mod s.cap) <- step;
  s.values.(s.count mod s.cap) <- v;
  s.count <- s.count + 1;
  Mutex.unlock s.lock

let points s =
  Mutex.lock s.lock;
  let n = min s.count s.cap in
  let first = s.count - n in
  let out = List.init n (fun i -> (s.steps.((first + i) mod s.cap), s.values.((first + i) mod s.cap))) in
  Mutex.unlock s.lock;
  out

let dropped s =
  Mutex.lock s.lock;
  let d = max 0 (s.count - s.cap) in
  Mutex.unlock s.lock;
  d

let snapshot () =
  Mutex.lock reg_lock;
  let all = Hashtbl.fold (fun _ runs acc -> runs @ acc) registry [] in
  Mutex.unlock reg_lock;
  List.sort (fun a b -> compare (a.s_name, a.s_run) (b.s_name, b.s_run)) all

let names () = List.map (fun s -> s.s_name) (snapshot ())

let to_json_string () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"series\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"name\":\"%a\",\"run\":%d,\"dropped\":%d,\"points\":["
        Json.add_escaped s.s_name s.s_run (dropped s);
      List.iteri
        (fun j (step, v) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (if Float.is_finite v then Printf.sprintf "{\"step\":%d,\"value\":%.12g}" step v
             else Printf.sprintf "{\"step\":%d,\"value\":null}" step))
        (points s);
      Buffer.add_string b "]}")
    (snapshot ());
  Buffer.add_string b "]}";
  Buffer.contents b

let write_file path =
  let oc = open_out path in
  output_string oc (to_json_string ());
  output_char oc '\n';
  close_out oc

let reset () =
  Mutex.lock reg_lock;
  Hashtbl.reset registry;
  Mutex.unlock reg_lock
