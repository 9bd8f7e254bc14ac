(* The serving topology as users run it: [clara router --workers 2] in
   its own process, reached only through Unix sockets.  Plus the
   single-threaded closed-loop generator that drives it. *)

(* -- blocking line I/O -- *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let really_write fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* A connection with its unread bytes in [buf.[lo, hi)]. *)
type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let conn fd = { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

(* Pop one complete line from the unread bytes, if any. *)
let take_line c =
  let rec nl i = if i >= c.hi then -1 else if Bytes.unsafe_get c.buf i = '\n' then i else nl (i + 1) in
  let i = nl c.lo in
  if i < 0 then None
  else begin
    let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
    c.lo <- i + 1;
    Some line
  end

(* One read(2) into the free tail (compacting or growing first);
   false on EOF. *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  let k = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
  c.hi <- c.hi + k;
  k > 0

let read_line c =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match take_line c with
    | Some l -> l
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then failwith "timed out waiting for a reply";
      (match Unix.select [ c.fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> if not (fill c) then failwith "peer closed the connection");
      go ()
  in
  go ()

let request c line =
  really_write c.fd (line ^ "\n");
  read_line c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* -- cheap reply inspection --

   Every reply is checked, so the generator must not parse multi-KB
   reports into trees.  [members] returns the raw value span of each
   depth-1 member, skipping string contents (escapes included) and
   nested values. *)

let members s =
  let n = String.length s in
  let rec skip_string i = if s.[i] = '\\' then skip_string (i + 2) else if s.[i] = '"' then i + 1 else skip_string (i + 1) in
  let rec skip_value i depth =
    if i >= n then i
    else
      match s.[i] with
      | '"' -> skip_value (skip_string (i + 1)) depth
      | '{' | '[' -> skip_value (i + 1) (depth + 1)
      | ('}' | ']') when depth = 0 -> i
      | '}' | ']' -> skip_value (i + 1) (depth - 1)
      | ',' when depth = 0 -> i
      | _ -> skip_value (i + 1) depth
  in
  let rec loop i acc =
    if i >= n || s.[i] <> '"' then List.rev acc
    else
      let kend = skip_string (i + 1) in
      let key = String.sub s (i + 1) (kend - i - 2) in
      let v0 = kend + 1 in
      let v1 = skip_value v0 0 in
      let acc = (key, String.sub s v0 (v1 - v0)) :: acc in
      if v1 < n && s.[v1] = ',' then loop (v1 + 1) acc else List.rev acc
  in
  if n < 2 || s.[0] <> '{' then [] else loop 1 []

let raw key ms = List.assoc_opt key ms

(* What the generator needs from an analyze reply: a failure, a wrong
   reply (id/nf/workload), or a good one with its path. *)
type verdict = Failed of string | Wrong of string | Good of [ `Fast | `Slow ]

let check (r : Pb_gen.req) reply =
  let ms = members reply in
  match raw "ok" ms with
  | Some "true" ->
    let want k v = raw k ms = Some v in
    if not (want "id" (string_of_int r.id)) then Wrong ("id echo " ^ reply)
    else if not (want "nf" (Printf.sprintf "%S" r.nf)) then Wrong ("nf " ^ reply)
    else if not (want "workload" (Printf.sprintf "%S" r.wl)) then Wrong ("workload " ^ reply)
    else if want "path" "\"fast\"" then Good `Fast
    else Good `Slow
  | _ -> Failed reply

(* -- the router process -- *)

type router = {
  pid : int;
  socket : string;
  mutable ctl : conn option;  (** control connection (health, stats) *)
  mutable sent : int;  (** lines this harness sent through the router *)
}

let child_env () =
  Array.append [| "CLARA_JOBS=1" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.length kv >= 11 && String.sub kv 0 11 = "CLARA_JOBS="))
          (Array.to_list (Unix.environment ()))))

let rec wait_exit pid ~timeout_s =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when timeout_s > 0.0 ->
    Unix.sleepf 0.01;
    wait_exit pid ~timeout_s:(timeout_s -. 0.01)
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Launch [clara router] and wait for its first reply through the socket
   (a forwarded ping: worker spawn, bundle load and lane compile are
   all behind it).  Returns the router and the launch-to-reply seconds. *)
let launch ~exe ~bundle ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Pb_stat.now_ns () in
  let pid =
    Unix.create_process_env exe
      [| exe; "router"; "--model"; bundle; "--workers"; "2"; "--socket"; socket; "--log"; "off" |]
      (child_env ()) devnull out out
  in
  Unix.close devnull;
  Unix.close out;
  let rt = { pid; socket; ctl = None; sent = 0 } in
  let rec first_reply tries =
    if tries = 0 then failwith "router never answered";
    match connect socket with
    | Error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "router exited during start-up");
      Unix.sleepf 0.0005;
      first_reply (tries - 1)
    | Ok fd ->
      let c = conn fd in
      let reply = request c {|{"id":0,"cmd":"ping"}|} in
      let dt = Pb_stat.s_since t0 in
      rt.sent <- rt.sent + 1;
      if raw "ok" (members reply) <> Some "true" then failwith ("ping failed: " ^ reply);
      rt.ctl <- Some c;
      dt
  in
  match first_reply 60000 with
  | dt -> (rt, dt)
  | exception e ->
    (* a router that never answered may still be starting its workers;
       SIGTERM lets it reap them *)
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit pid ~timeout_s:10.0) then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit pid ~timeout_s:5.0)
    end;
    raise e

let ctl rt = match rt.ctl with Some c -> c | None -> failwith "router has no control connection"

let json_of reply =
  match Serve.Jsonl.of_string reply with Ok j -> j | Error e -> failwith ("bad JSON reply: " ^ e)

let num k j = Option.value (Serve.Jsonl.num_member k j) ~default:nan

(* The router's health document: its own counters and the workers'
   names, sockets and pids. *)
type health = { served : int; forwarded : int; router_pid : int; workers : (string * string * int) list }

let health rt =
  let j = json_of (request (ctl rt) {|{"id":0,"cmd":"health"}|}) in
  rt.sent <- rt.sent + 1;
  let workers =
    match Serve.Jsonl.member "workers" j with
    | Some (Serve.Jsonl.Arr ws) ->
      List.map
        (fun w ->
          ( Option.get (Serve.Jsonl.str_member "name" w),
            Option.get (Serve.Jsonl.str_member "socket" w),
            int_of_float (num "pid" w) ))
        ws
    | _ -> failwith "health reply without workers"
  in
  { served = int_of_float (num "served" j); forwarded = int_of_float (num "forwarded" j);
    router_pid = int_of_float (num "pid" j); workers }

(* One worker's [stats], asked on its own socket (the router never sees
   it, so its counters stay put). *)
let worker_stats socket =
  match connect socket with
  | Error e -> failwith ("worker socket: " ^ e)
  | Ok fd ->
    let c = conn fd in
    let j = json_of (request c {|{"id":0,"cmd":"stats"}|}) in
    close c;
    j

let alive pid = match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false

(* Stop the router through its front door (it broadcasts shutdown to the
   workers and reaps them); SIGKILL everything that outlives the grace. *)
let stop rt =
  let workers = try (health rt).workers with _ -> [] in
  (try ignore (request (ctl rt) {|{"id":0,"cmd":"shutdown"}|}) with _ -> ());
  Option.iter close rt.ctl;
  rt.ctl <- None;
  if not (wait_exit rt.pid ~timeout_s:10.0) then begin
    (try Unix.kill rt.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit rt.pid ~timeout_s:5.0)
  end;
  List.iter
    (fun (_, _, pid) -> if pid > 0 && alive pid then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    workers;
  (try Unix.unlink rt.socket with Unix.Unix_error _ -> ())

(* -- the closed loop --

   [conns] connections, each keeping [depth] requests in flight; a reply
   releases the next request on the same connection.  Stops issuing when
   [next] returns [None] or [until_ns] passes, then drains.  [on_reply]
   sees each request with its reply and send-to-reply microseconds and
   the send/reply clock stamps. *)
let closed_loop ~socket ~conns ~depth ~(next : unit -> Pb_gen.req option) ~until_ns
    ~(on_reply : Pb_gen.req -> string -> float -> int64 -> int64 -> unit) =
  let cs =
    Array.init conns (fun _ ->
        match connect socket with Ok fd -> conn fd | Error e -> failwith ("connect: " ^ e))
  in
  let inflight = Array.init conns (fun _ -> Queue.create ()) in
  let out = Buffer.create 4096 in
  let stopped = ref false in
  let sent = ref 0 in
  let send_next i =
    if not !stopped then
      if Int64.compare (Pb_stat.now_ns ()) until_ns >= 0 then stopped := true
      else
        match next () with
        | None -> stopped := true
        | Some (r : Pb_gen.req) ->
          Buffer.add_string out r.line;
          Buffer.add_char out '\n';
          incr sent;
          Queue.push (r, Pb_stat.now_ns ()) inflight.(i)
  in
  let flush i =
    if Buffer.length out > 0 then begin
      really_write cs.(i).fd (Buffer.contents out);
      Buffer.clear out
    end
  in
  for i = 0 to conns - 1 do
    for _ = 1 to depth do
      send_next i
    done;
    flush i
  done;
  let outstanding () = Array.exists (fun q -> not (Queue.is_empty q)) inflight in
  while outstanding () do
    let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    match Unix.select fds [] [] 30.0 with
    | [], _, _ -> failwith "closed loop: no reply for 30 s"
    | ready, _, _ ->
      Array.iteri
        (fun i c ->
          if List.memq c.fd ready then begin
            if not (fill c) then failwith "closed loop: server closed the connection";
            let rec drain () =
              match take_line c with
              | None -> ()
              | Some reply ->
                let t1 = Pb_stat.now_ns () in
                let r, t0 = Queue.pop inflight.(i) in
                on_reply r reply (Pb_stat.us_between t0 t1) t0 t1;
                send_next i;
                drain ()
            in
            drain ();
            flush i
          end)
        cs
  done;
  Array.iter close cs;
  !sent
