(** Blocking line I/O to one worker socket (see upstream.mli). *)

module Lineio = Serve.Lineio

let connect = Lineio.connect
let send_lines = Lineio.send_lines

let error_message = function
  | Lineio.Timeout -> "timed out awaiting worker reply"
  | Lineio.Closed -> "worker closed the connection"
  | Lineio.Io msg -> msg

let read_lines fd ~residue ~n ~timeout_s =
  Result.map_error error_message (Lineio.read_lines fd ~residue ~n ~timeout_s)

let oneshot ~socket_path ~timeout_s line =
  let c = Lineio.conn ~socket_path in
  let reply = Lineio.call c ~timeout_s line in
  Lineio.close c;
  Result.map_error error_message reply
