(** Retrying insight-service client (see client.mli). *)

type t = {
  conn : Lineio.conn;
  timeout_s : float;
  retries : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  seed : int;
  mutable next_id : int;
  mutable draw : int;  (* jitter-sequence position *)
  mutable attempts : int;
  mutable retries_used : int;
}

type error =
  | Overloaded of string
  | Timeout
  | Io of string
  | Bad_reply of string

let error_to_string = function
  | Overloaded msg -> "overloaded: " ^ msg
  | Timeout -> "timed out awaiting reply"
  | Io msg -> "I/O error: " ^ msg
  | Bad_reply msg -> "unparseable reply: " ^ msg

let create ?(timeout_s = 5.0) ?(retries = 4) ?(backoff_base_s = 0.05) ?(backoff_cap_s = 1.0)
    ?(seed = 1) ~socket_path () =
  if timeout_s <= 0.0 then invalid_arg "Client.create: timeout_s must be > 0";
  if retries < 0 then invalid_arg "Client.create: retries must be >= 0";
  { conn = Lineio.conn ~socket_path; timeout_s; retries; backoff_base_s; backoff_cap_s; seed;
    next_id = 1; draw = 0; attempts = 0; retries_used = 0 }

let attempts t = t.attempts
let retries_used t = t.retries_used

let close t = Lineio.close t.conn

(* splitmix64 finalizer, as in [Obs.Fault]: jitter draw [i] is a pure
   function of (seed, i), so a fixed seed replays the backoff schedule. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float ~seed k =
  let bits =
    mix64 (Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) (Int64.of_int k))
  in
  Int64.to_float (Int64.shift_right_logical bits 11) *. (1.0 /. 9007199254740992.0)

let backoff_sleep t ~attempt =
  let jitter =
    let k = t.draw in
    t.draw <- k + 1;
    0.5 +. (0.5 *. unit_float ~seed:t.seed k)
  in
  let base = t.backoff_base_s *. (2.0 ** float_of_int attempt) in
  Unix.sleepf (Float.min t.backoff_cap_s base *. jitter)

let request t fields =
  let fields =
    if List.mem_assoc "id" fields then fields
    else begin
      (* One id per logical request, reused verbatim on every retry. *)
      let id = t.next_id in
      t.next_id <- id + 1;
      ("id", Jsonl.Num (float_of_int id)) :: fields
    end
  in
  let line = Jsonl.to_string (Jsonl.Obj fields) in
  let rec go attempt last_err =
    if attempt > t.retries then Error last_err
    else begin
      if attempt > 0 then begin
        t.retries_used <- t.retries_used + 1;
        close t;
        (* reconnect fresh: the failed socket may be half-dead *)
        backoff_sleep t ~attempt:(attempt - 1)
      end;
      t.attempts <- t.attempts + 1;
      (* One round trip within the per-attempt timeout.  EOF before a
         newline means the server hung up on us (e.g. the connection-limit
         shed closes right after its reply — that reply still arrives
         whole first). *)
      match Lineio.call t.conn ~timeout_s:t.timeout_s line with
      | Error Lineio.Timeout -> go (attempt + 1) Timeout
      | Error Lineio.Closed -> go (attempt + 1) (Io "server closed the connection")
      | Error (Lineio.Io msg) -> go (attempt + 1) (Io msg)
      | Ok raw -> (
        match Jsonl.of_string raw with
        | Error msg -> Error (Bad_reply msg)
        | Ok reply -> (
          (* Replies flagged ["overloaded":true] (admission/connection
             shedding) or ["unavailable":true] (a router's worker died
             mid-request; the next attempt re-hashes to a live one) are the
             server saying "retry later": both feed the backoff loop. *)
          match Proto.retry_later reply with
          | Some msg -> go (attempt + 1) (Overloaded msg)
          | None -> Ok reply))
    end
  in
  go 0 (Io "no attempt made")
