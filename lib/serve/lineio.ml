(** Blocking newline-framed socket I/O (see lineio.mli). *)

type error = Timeout | Closed | Io of string

let unix_msg fn err = Printf.sprintf "%s: %s" fn (Unix.error_message err)

let connect ~socket_path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> Ok fd
  | exception Unix.Unix_error (err, fn, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (unix_msg fn err)

(* [Unix.write] loops over 64 KiB chunks and raises [EINTR] even after
   some went out, losing the count; one [single_write] per call reports
   exactly what was sent, so a signal (the router's SIGTERM drain
   handler) only costs a retry. *)
let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    match Unix.single_write_substring fd s !sent (n - !sent) with
    | k -> sent := !sent + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send_lines fd lines =
  match write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) with
  | () -> Ok ()
  | exception Unix.Unix_error (err, fn, _) -> Error (unix_msg fn err)

let read_lines fd ~residue ~n ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 8192 in
  (* [line] holds the bytes after the last newline consumed: the current
     partial line while lines are still wanted, then the new residue.
     Each received byte is scanned once and copied into [line] once. *)
  let line = Buffer.create 512 in
  let lines = ref [] and got = ref 0 in
  let rec consume s start =
    match String.index_from_opt s start '\n' with
    | Some i when !got < n ->
      Buffer.add_substring line s start (i - start);
      lines := Buffer.contents line :: !lines;
      Buffer.clear line;
      incr got;
      consume s (i + 1)
    | _ -> Buffer.add_substring line s start (String.length s - start)
  in
  consume residue 0;
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
            consume (Bytes.sub_string chunk 0 r) 0;
            take ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
          | exception Unix.Unix_error (err, fn, _) -> Error (Io (unix_msg fn err)))
    end
  in
  take ()
