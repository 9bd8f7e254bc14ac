(** Blocking line I/O to one worker socket (see upstream.mli). *)

let unix_msg fn err = Printf.sprintf "%s: %s" fn (Unix.error_message err)

let connect ~socket_path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> Ok fd
  | exception Unix.Unix_error (err, fn, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (unix_msg fn err)

let send_lines fd lines =
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let n = String.length payload in
  match
    let sent = ref 0 in
    while !sent < n do
      sent := !sent + Unix.write_substring fd payload !sent (n - !sent)
    done
  with
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
      if remaining <= 0.0 then Error "timed out awaiting worker reply"
      else
        match Unix.select [ fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
        | exception Unix.Unix_error (err, fn, _) -> Error (unix_msg fn err)
        | [], _, _ -> Error "timed out awaiting worker reply"
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error "worker closed the connection"
          | r ->
            consume (Bytes.sub_string chunk 0 r) 0;
            take ()
          | exception Unix.Unix_error (err, fn, _) -> Error (unix_msg fn err))
    end
  in
  take ()

let oneshot ~socket_path ~timeout_s line =
  match connect ~socket_path with
  | Error _ as e -> e
  | Ok fd ->
    let out =
      match send_lines fd [ line ] with
      | Error _ as e -> e
      | Ok () -> (
        match read_lines fd ~residue:"" ~n:1 ~timeout_s with
        | Ok ([ reply ], _) -> Ok reply
        | Ok _ -> Error "protocol error: expected one reply line"
        | Error _ as e -> e)
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    out
