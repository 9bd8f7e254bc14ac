(** Level-triggered event loop (see evloop.mli). *)

(* Per-connection state machine:

     Reading --(EOF with a final partial line or replies owed)--> Closing
     --(every reply written)--> Dead

   [Reading] connections contribute complete lines to each round's batch;
   [Closing] connections only await and drain their replies (the peer
   half-closed); [Dead] is closed and detached.  Every line a connection
   sent owns one slot in its FIFO [slots], in request order; whenever
   the slots at its head are filled, their replies move to the write
   buffer, so replies leave in request order however they complete.
   Writes are coalesced: a wake's replies are drained in as few [write]
   calls as the kernel allows. *)

type slot = { mutable reply : string option }

let slot () = { reply = None }
let filled reply = { reply = Some reply }

let fill s reply =
  match s.reply with
  | None -> s.reply <- Some reply
  | Some _ -> invalid_arg "Evloop.fill: slot already filled"

let reply s = s.reply

type conn = {
  id : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (** the partial line after the last newline read *)
  slots : slot Queue.t;  (** replies owed, in request order *)
  wbuf : Buffer.t;  (** replies not yet handed to [write] *)
  mutable wpend : string;  (** in-flight flush remainder *)
  mutable woff : int;
  mutable closing : bool;
  mutable dead : bool;
}

type callbacks = {
  on_reject : Unix.file_descr -> unit;
  on_disconnect : fn:string -> Unix.error -> unit;
  on_error : ctx:string -> fn:string -> Unix.error -> unit;
  on_close : int -> unit;
}

type t = {
  listener : Unix.file_descr;
  max_clients : int;
  cb : callbacks;
  mutable conns : conn list;  (** accept order, newest last *)
  mutable n_conns : int;
  mutable next_id : int;
  mutable listening : bool;  (** listener open and polled *)
  chunk : Bytes.t;
}

let create ~listener ~max_clients cb =
  { listener; max_clients; cb; conns = []; n_conns = 0; next_id = 0; listening = true;
    chunk = Bytes.create 65536 }

let drop t c =
  if not c.dead then begin
    c.dead <- true;
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    t.n_conns <- t.n_conns - 1;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.cb.on_close c.id
  end

let close_all t = List.iter (fun c -> drop t c) t.conns

(* Move the filled head of the slot FIFO to the write buffer. *)
let emit c =
  let rec go () =
    match Queue.peek_opt c.slots with
    | Some { reply = Some reply } ->
      ignore (Queue.pop c.slots);
      Buffer.add_string c.wbuf reply;
      Buffer.add_char c.wbuf '\n';
      go ()
    | Some { reply = None } | None -> ()
  in
  go ()

let unwritten c = c.woff < String.length c.wpend || Buffer.length c.wbuf > 0
let pending c = unwritten c || not (Queue.is_empty c.slots)
let has_pending t = List.exists pending t.conns

(* Drain the connection's whole write queue in one go: a wake's replies
   are coalesced into as few [write] calls as the kernel allows, and the
   fds stay blocking so no reply is ever stranded in user space at
   shutdown.  [woff] advances by exactly what each write sent, so a
   signal mid-flush never resends a byte.  EPIPE/ECONNRESET (and the
   armed serve.write fault) are the peer's lifecycle: count, log at info
   via the callback, drop.  A closing connection goes once it owes
   nothing more. *)
let flush_conn t c =
  if (not c.dead) && unwritten c then begin
    try
      if Obs.Fault.fire "serve.write" then
        raise (Unix.Unix_error (Unix.EPIPE, "write", "injected fault: serve.write"));
      let continue = ref true in
      while !continue do
        if c.woff >= String.length c.wpend then
          if Buffer.length c.wbuf > 0 then begin
            c.wpend <- Buffer.contents c.wbuf;
            c.woff <- 0;
            Buffer.clear c.wbuf
          end
          else continue := false
        else c.woff <- c.woff + Lineio.write c.fd c.wpend c.woff (String.length c.wpend - c.woff)
      done
    with
    | Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as err), _, _) ->
      t.cb.on_disconnect ~fn:"write" err;
      drop t c
    | Unix.Unix_error (err, _, _) ->
      t.cb.on_error ~ctx:"serve.write_error" ~fn:"write" err;
      drop t c
  end;
  if c.closing && not (pending c) then drop t c

(* Write every connection's filled prefix. *)
let deliver t =
  List.iter
    (fun c ->
      if not c.dead then begin
        emit c;
        flush_conn t c
      end)
    t.conns

let accept_one t =
  try
    if Obs.Fault.fire "serve.accept" then
      raise (Unix.Unix_error (Unix.EMFILE, "accept", "injected fault: serve.accept"));
    let fd, _ = Unix.accept t.listener in
    if t.n_conns >= t.max_clients then t.cb.on_reject fd
    else begin
      let c =
        { id = t.next_id; fd; rbuf = Buffer.create 256; slots = Queue.create ();
          wbuf = Buffer.create 256; wpend = ""; woff = 0; closing = false; dead = false }
      in
      t.next_id <- t.next_id + 1;
      t.conns <- t.conns @ [ c ];
      t.n_conns <- t.n_conns + 1
    end
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error (err, _, _) -> t.cb.on_error ~ctx:"serve.accept_error" ~fn:"accept" err

let read_conn t c acc =
  try
    if Obs.Fault.fire "serve.read" then
      raise (Unix.Unix_error (Unix.ECONNRESET, "read", "injected fault: serve.read"));
    let n = Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) in
    if n = 0 then begin
      (* EOF: answer a final unterminated line, and every line still
         owed a reply, before closing *)
      let rest = String.trim (Buffer.contents c.rbuf) in
      Buffer.clear c.rbuf;
      if rest <> "" then begin
        c.closing <- true;
        (c, [ rest ]) :: acc
      end
      else begin
        if pending c then c.closing <- true else drop t c;
        acc
      end
    end
    else begin
      (* complete lines (blank ones dropped) join the round; the partial
         tail stays in [rbuf] *)
      let lines = ref [] in
      ignore
        (Lineio.split c.rbuf (Bytes.sub_string t.chunk 0 n) ~max:max_int (fun l ->
             if String.trim l <> "" then lines := l :: !lines));
      match !lines with [] -> acc | ls -> (c, List.rev ls) :: acc
    end
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> acc
  | Unix.Unix_error (((Unix.ECONNRESET | Unix.EPIPE) as err), _, _) ->
    t.cb.on_disconnect ~fn:"read" err;
    drop t c;
    acc
  | Unix.Unix_error (err, _, _) ->
    t.cb.on_error ~ctx:"serve.read_error" ~fn:"read" err;
    drop t c;
    acc

(* One wait: flush what the kernel can take, accept at most one client,
   and collect the complete lines that arrived (in accept order) plus
   which of the caller's [watch] fds are readable. *)
let poll t ~watch ~timeout_s =
  let rfds =
    let conn_fds =
      List.filter_map (fun c -> if c.dead || c.closing then None else Some c.fd) t.conns
    in
    let fds = List.rev_append watch conn_fds in
    if t.listening then t.listener :: fds else fds
  in
  let wfds =
    List.filter_map (fun c -> if (not c.dead) && unwritten c then Some c.fd else None) t.conns
  in
  match Unix.select rfds wfds [] timeout_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Eintr
  | readable, writable, _ ->
    List.iter
      (fun c -> if (not c.dead) && List.memq c.fd writable then flush_conn t c)
      t.conns;
    if t.listening && List.memq t.listener readable then accept_one t;
    let batches =
      List.fold_left
        (fun acc c ->
          if (not c.dead) && (not c.closing) && List.memq c.fd readable then read_conn t c acc
          else acc)
        [] t.conns
    in
    let ready = if watch = [] then [] else List.filter (fun fd -> List.memq fd readable) watch in
    `Round (List.rev batches, ready)

(* -- the serving skeleton -- *)

type control = { mutable stop : bool; mutable drain : bool }

let control () = { stop = false; drain = false }
let request_stop c = c.stop <- true
let request_drain c = c.drain <- true
let draining c = c.drain

(* Bounds how late a flag set from another domain is noticed; a signal
   wakes the wait at once through EINTR. *)
let poll_timeout_s = 0.25

type handler = {
  handle_batch : (int * string list) list -> slot list;
  watch : unit -> Unix.file_descr list;
  service : Unix.file_descr list -> bool;
  on_close : int -> unit;
  on_tick : unit -> unit;
}

(* Every complete line of a round goes to [handle_batch] as one batch,
   so the admission bound applies across clients; each line's slot joins
   its connection's FIFO in request order. *)
let enqueue t handle_batch batches =
  let slots = ref (handle_batch (List.map (fun (c, lines) -> (c.id, lines)) batches)) in
  List.iter
    (fun (c, lines) ->
      List.iter
        (fun _ ->
          match !slots with
          | s :: rest ->
            slots := rest;
            if not c.dead then Queue.push s c.slots
          | [] -> invalid_arg "Evloop: handle_batch returned fewer slots than lines")
        lines)
    batches;
  deliver t

(* One turn of the loop: tick, wait (not at all while [busy]: the
   handler has work it wants to continue), hand the round's lines to
   [handle_batch] and write what is filled, then let [service] run its
   slice and write what that filled.  Returns whether lines arrived and
   whether the handler is still busy. *)
let turn t h ~busy ~timeout_s =
  h.on_tick ();
  match poll t ~watch:(h.watch ()) ~timeout_s:(if busy then 0.0 else timeout_s) with
  | `Eintr -> (false, busy)
  | `Round (batches, ready) ->
    if batches <> [] then enqueue t h.handle_batch batches;
    let busy = h.service ready in
    deliver t;
    (batches <> [], busy)

(* Connection-level shedding: tell the client it is the load, not the
   request, then hang up. *)
let reject_with reject fd =
  let reply = reject () ^ "\n" in
  (try
     if Obs.Fault.fire "serve.write" then
       raise (Unix.Unix_error (Unix.EPIPE, "write", "injected fault: serve.write"));
     Lineio.write_all fd reply
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let with_signal signal behavior f =
  let old =
    if Sys.os_type <> "Unix" then None
    else try Some (Sys.signal signal behavior) with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect f ~finally:(fun () ->
      Option.iter
        (fun h -> try Sys.set_signal signal h with Invalid_argument _ | Sys_error _ -> ())
        old)

(* A connection that sends nothing more once the drain window closed:
   it keeps what it is owed and goes when that is written. *)
let stop_reading t =
  List.iter (fun c -> if pending c then c.closing <- true else drop t c) t.conns

let run ~name ~socket_path ~max_clients ~control:c ~handler:h ~reject ~on_disconnect ~on_error =
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  with_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_drain c)) @@ fun () ->
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 16;
  let t =
    create ~listener ~max_clients
      { on_reject = reject_with reject; on_disconnect; on_error; on_close = h.on_close }
  in
  (* Runs at most once: a second close could hit a reused fd number. *)
  let teardown_listener () =
    if t.listening then begin
      t.listening <- false;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ()
    end
  in
  let busy = ref false in
  while not (c.stop || c.drain) do
    busy := snd (turn t h ~busy:!busy ~timeout_s:poll_timeout_s)
  done;
  (* Graceful drain: the listener goes first, so new connections fail
     fast while buffered requests still get real answers.  Lines read
     within the grace window are answered, however long their replies
     take; an idle 50ms round that owes nothing ends the drain early. *)
  if not c.stop then begin
    Obs.Log.info ~fields:[ ("clients", Obs.Log.Int t.n_conns) ] (name ^ ".drain");
    teardown_listener ();
    let drain_until = Obs.Clock.now_s () +. 0.5 in
    let quiescent = ref false in
    while (not !quiescent) && (not c.stop) && t.n_conns > 0 do
      if Obs.Clock.now_s () >= drain_until then stop_reading t;
      let got, more = turn t h ~busy:!busy ~timeout_s:0.05 in
      busy := more;
      if (not got) && (not more) && not (has_pending t) then quiescent := true
    done
  end;
  close_all t;
  teardown_listener ()
