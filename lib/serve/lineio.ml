(** Newline-framed socket I/O (see lineio.mli). *)

type error = Timeout | Closed | Io of string

let unix_msg fn err = Printf.sprintf "%s: %s" fn (Unix.error_message err)

let connect ~socket_path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> Ok fd
  | exception Unix.Unix_error (err, fn, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (unix_msg fn err)

(* -- writing -- *)

(* [Unix.write] loops over 64 KiB chunks and raises [EINTR] even after
   some went out, losing the count; one [single_write] per call reports
   exactly what was sent, so a signal (SIGTERM's drain, SIGQUIT's flight
   dump) only costs a retry. *)
let rec write fd s off len =
  match Unix.single_write_substring fd s off len with
  | k -> k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write fd s off len

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + write fd s !sent (n - !sent)
  done

let send_lines fd lines =
  match write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) with
  | () -> Ok ()
  | exception Unix.Unix_error (err, fn, _) -> Error (unix_msg fn err)

(* -- splitting -- *)

let split partial s ~max emit =
  let rec go start k =
    match if k < max then String.index_from_opt s start '\n' else None with
    | Some i ->
      Buffer.add_substring partial s start (i - start);
      emit (Buffer.contents partial);
      Buffer.clear partial;
      go (i + 1) (k + 1)
    | None ->
      Buffer.add_substring partial s start (String.length s - start);
      k
  in
  go 0 0

let read_lines fd ~residue ~n ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 8192 in
  (* [line] holds the bytes after the last line taken: the partial line
     while lines are still wanted, then the new residue. *)
  let line = Buffer.create 512 in
  let lines = ref [] and got = ref 0 in
  let consume s = got := !got + split line s ~max:(n - !got) (fun l -> lines := l :: !lines) in
  consume residue;
  let rec take () =
    if !got >= n then Ok (List.rev !lines, Buffer.contents line)
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Error Timeout
      else
        match Unix.select [ fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
        | exception Unix.Unix_error (err, fn, _) -> Error (Io (unix_msg fn err))
        | [], _, _ -> Error Timeout
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error Closed
          | r ->
            consume (Bytes.sub_string chunk 0 r);
            take ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
          | exception Unix.Unix_error (err, fn, _) -> Error (Io (unix_msg fn err)))
    end
  in
  take ()

(* -- the persistent connection -- *)

type conn = {
  socket_path : string;
  mutable fd : Unix.file_descr option;
  mutable residue : string;  (* bytes read past the last reply's newline *)
}

let conn ~socket_path = { socket_path; fd = None; residue = "" }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  c.residue <- ""

(* A connection that failed mid-conversation is out of step with its
   peer: close it, so the next send starts fresh. *)
let fail c e =
  close c;
  Error e

let rec send c lines =
  match c.fd with
  | Some fd -> ( match send_lines fd lines with Ok () -> Ok () | Error msg -> fail c (Io msg))
  | None -> (
    match connect ~socket_path:c.socket_path with
    | Ok fd ->
      c.fd <- Some fd;
      send c lines
    | Error msg -> Error (Io msg))

let recv c ~n ~timeout_s =
  match c.fd with
  | None -> Error Closed
  | Some fd -> (
    match read_lines fd ~residue:c.residue ~n ~timeout_s with
    | Ok (lines, residue) ->
      c.residue <- residue;
      Ok lines
    | Error e -> fail c e)

let fd c = c.fd

(* One read buffer per domain, reused by every [read_ready]. *)
let ready_chunk = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let read_ready c emit =
  match c.fd with
  | None -> Error Closed
  | Some fd -> (
    let chunk = Domain.DLS.get ready_chunk in
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> fail c Closed
    | r ->
      let line = Buffer.create (String.length c.residue + r) in
      Buffer.add_string line c.residue;
      ignore (split line (Bytes.sub_string chunk 0 r) ~max:max_int emit);
      c.residue <- Buffer.contents line;
      Ok ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Ok ()
    | exception Unix.Unix_error (err, fn, _) -> fail c (Io (unix_msg fn err)))

let call c ~timeout_s line =
  Result.bind (send c [ line ]) (fun () -> Result.map List.hd (recv c ~n:1 ~timeout_s))
