(** Blocking line I/O to one worker socket (see upstream.mli). *)

module Lineio = Serve.Lineio

let connect = Lineio.connect
let send_lines = Lineio.send_lines

let read_lines fd ~residue ~n ~timeout_s =
  match Lineio.read_lines fd ~residue ~n ~timeout_s with
  | Ok _ as ok -> ok
  | Error Lineio.Timeout -> Error "timed out awaiting worker reply"
  | Error Lineio.Closed -> Error "worker closed the connection"
  | Error (Lineio.Io msg) -> Error msg

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
