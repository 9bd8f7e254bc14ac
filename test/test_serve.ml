(** Tests for the insight service: the hand-rolled JSON, the request
    handler (valid / unknown-NF / malformed / inline p4lite), a pipelined
    batch through the socket server, a real 8-client burst against it
    with a 4-domain pool, and the line-I/O layer: [Lineio]'s write,
    splitter and connection, and [Evloop]'s bytes through them. *)

let with_jobs n f =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) f

(* -- Jsonl -- *)

let test_json_roundtrip () =
  List.iter
    (fun src ->
      match Serve.Jsonl.of_string src with
      | Error msg -> Alcotest.failf "%S failed to parse: %s" src msg
      | Ok v ->
        let printed = Serve.Jsonl.to_string v in
        Alcotest.(check bool)
          (Printf.sprintf "%S survives print+reparse" src)
          true
          (Serve.Jsonl.of_string printed = Ok v);
        Alcotest.(check bool)
          (Printf.sprintf "%S prints on one line" src)
          false (String.contains printed '\n'))
    [ "null"; "true"; "[1,2.5,\"x\"]"; "{\"a\":[{\"b\":null}],\"c\":-3}";
      "{\"s\":\"tab\\tnl\\nq\\\"\"}"; "{}"; "[]"; "[1e-3,123456789012]" ];
  (match Serve.Jsonl.of_string "\"\\u0041\\u00e9\"" with
  | Ok (Serve.Jsonl.Str s) -> Alcotest.(check string) "unicode escapes decode" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape parse");
  List.iter
    (fun bad ->
      match Serve.Jsonl.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ ""; "{"; "[1,]"; "{\"a\"}"; "tru"; "\"unterminated"; "1 2" ]

(* -- Obs.Json.add_escaped: the one escaper every JSON writer uses -- *)

let test_escaper_round_trip () =
  (* every byte below 0x80, plus UTF-8 and both escape-worthy printables *)
  let s = String.init 128 Char.chr ^ "\xc3\xa9\"\\" in
  let b = Buffer.create 512 in
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"';
  let quoted = Buffer.contents b in
  Alcotest.(check bool) "no raw control byte survives" false
    (String.exists (fun c -> Char.code c < 0x20) quoted);
  let has sub =
    let n = String.length quoted and m = String.length sub in
    let rec go i = i + m <= n && (String.sub quoted i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "short forms for \\r and \\t" true (has "\\r" && has "\\t");
  (match Serve.Jsonl.of_string quoted with
  | Ok (Serve.Jsonl.Str back) -> Alcotest.(check string) "parses back to the input" s back
  | _ -> Alcotest.fail "escaped string does not parse");
  (* an Obs document carrying the same bytes still parses *)
  let fl = Obs.Flight.create ~shards:1 ~capacity:2 () in
  Obs.Flight.record fl ~shard:0 ~trace:"t\r\t" ~path:"slow" ~latency_us:1.0 ~outcome:"ok"
    ~request:s ~reply:"r";
  match Serve.Jsonl.of_string (Obs.Flight.to_json_string fl) with
  | Ok j -> (
    match Serve.Jsonl.member "records" j with
    | Some (Serve.Jsonl.Arr [ r ]) ->
      Alcotest.(check (option string)) "request bytes survive the flight document" (Some s)
        (Serve.Jsonl.str_member "request" r)
    | _ -> Alcotest.fail "flight document lost its record")
  | Error msg -> Alcotest.failf "flight document unparseable: %s" msg

(* -- salvage_member: scalar extraction from malformed request lines -- *)

let test_salvage_member () =
  let salv key src = Serve.Jsonl.salvage_member key src in
  Alcotest.(check bool) "numeric id from a truncated line" true
    (salv "id" {|{"id":7,"cmd":"analyze"|} = Some (Serve.Jsonl.Num 7.0));
  Alcotest.(check bool) "string id from a truncated line" true
    (salv "id" {|{"id":"req-9","cmd":|} = Some (Serve.Jsonl.Str "req-9"));
  (* escaped quotes inside string values must not fool the scanner *)
  Alcotest.(check bool) "escaped quotes inside a value" true
    (salv "id" {|{"x":"a\"id\":7","id":3|} = Some (Serve.Jsonl.Num 3.0));
  Alcotest.(check bool) "key inside a string value is not salvaged" true
    (salv "id" {|{"x":"\"id\":9","cmd":|} = None);
  (* keys are matched at object depth 1 only *)
  Alcotest.(check bool) "key inside a nested object is not salvaged" true
    (salv "id" {|{"a":{"id":5},"cmd":|} = None);
  Alcotest.(check bool) "top-level key wins over a nested decoy" true
    (salv "id" {|{"a":{"id":5},"id":8|} = Some (Serve.Jsonl.Num 8.0));
  (* the same machinery salvages trace ids *)
  Alcotest.(check bool) "string trace_id salvaged" true
    (salv "trace_id" {|{"trace_id":"abc","cmd":"analyze"|} = Some (Serve.Jsonl.Str "abc"));
  Alcotest.(check bool) "bool and null scalars parse" true
    (salv "flag" {|{"flag":true,"cmd":|} = Some (Serve.Jsonl.Bool true)
    && salv "flag" {|{"flag":null,"cmd":|} = Some Serve.Jsonl.Null);
  Alcotest.(check bool) "absent key yields nothing" true (salv "id" {|{"cmd":"analyze"|} = None)

(* -- request handling (in-process, tiny models) -- *)

let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let fresh_server () = Serve.Server.create ~cache_capacity:8 (Lazy.force models)

let parse_reply line =
  match Serve.Jsonl.of_string line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg

let is_ok reply = Serve.Jsonl.member "ok" reply = Some (Serve.Jsonl.Bool true)

let test_handle_valid_and_cached () =
  let s = fresh_server () in
  let q = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} in
  let r1 = parse_reply (Serve.Server.handle_request s q) in
  Alcotest.(check bool) "first reply ok" true (is_ok r1);
  Alcotest.(check (option string)) "nf echoed" (Some "tcpack") (Serve.Jsonl.str_member "nf" r1);
  Alcotest.(check bool) "first is uncached" true
    (Serve.Jsonl.member "cached" r1 = Some (Serve.Jsonl.Bool false));
  Alcotest.(check (option string)) "first is answered by the slow path" (Some "slow")
    (Serve.Jsonl.str_member "path" r1);
  let r2 = parse_reply (Serve.Server.handle_request s q) in
  Alcotest.(check bool) "second is cached" true
    (Serve.Jsonl.member "cached" r2 = Some (Serve.Jsonl.Bool true));
  Alcotest.(check (option string)) "second is answered by the fast path" (Some "fast")
    (Serve.Jsonl.str_member "path" r2);
  Alcotest.(check (option string)) "cached report identical"
    (Serve.Jsonl.str_member "report" r1)
    (Serve.Jsonl.str_member "report" r2);
  Alcotest.(check int) "one hit" 1 (Serve.Server.cache_hits s);
  Alcotest.(check int) "one miss" 1 (Serve.Server.cache_misses s)

let test_handle_errors () =
  let s = fresh_server () in
  let unknown =
    parse_reply (Serve.Server.handle_request s {|{"id":2,"cmd":"analyze","nf":"bogus"}|})
  in
  Alcotest.(check bool) "unknown NF rejected" false (is_ok unknown);
  (match Serve.Jsonl.member "valid" unknown with
  | Some (Serve.Jsonl.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "unknown-NF reply lists valid names");
  let malformed = parse_reply (Serve.Server.handle_request s "{not json") in
  Alcotest.(check bool) "malformed rejected" false (is_ok malformed);
  (match Serve.Jsonl.str_member "error" malformed with
  | Some _ -> ()
  | None -> Alcotest.fail "malformed reply carries an error");
  let badw =
    parse_reply
      (Serve.Server.handle_request s {|{"cmd":"analyze","nf":"tcpack","workload":"bogus"}|})
  in
  Alcotest.(check bool) "unknown workload rejected" false (is_ok badw);
  let nocmd = parse_reply (Serve.Server.handle_request s {|{"id":3}|}) in
  Alcotest.(check bool) "missing cmd rejected" false (is_ok nocmd);
  Alcotest.(check int) "every line counted" 4 (Serve.Server.served s)

(* Error replies must echo the request id — including for lines that do
   not parse as JSON at all (the id is salvaged from the raw text), or a
   pipelined client can no longer match replies to requests. *)
let test_id_echo_on_errors () =
  let s = fresh_server () in
  let id_of r = Serve.Jsonl.member "id" r in
  let unknown = parse_reply (Serve.Server.handle_request s {|{"id":41,"cmd":"frobnicate"}|}) in
  Alcotest.(check bool) "unknown cmd rejected" false (is_ok unknown);
  Alcotest.(check bool) "unknown cmd echoes id" true
    (id_of unknown = Some (Serve.Jsonl.Num 41.0));
  let malformed = parse_reply (Serve.Server.handle_request s {|{"id":7,"cmd":"analyze"|}) in
  Alcotest.(check bool) "malformed rejected" false (is_ok malformed);
  Alcotest.(check bool) "malformed line still echoes numeric id" true
    (id_of malformed = Some (Serve.Jsonl.Num 7.0));
  let str_id = parse_reply (Serve.Server.handle_request s {|{"id":"req-9","cmd":"analyze"|}) in
  Alcotest.(check bool) "malformed line still echoes string id" true
    (id_of str_id = Some (Serve.Jsonl.Str "req-9"));
  (* an "id" inside a string value must not be mistaken for the field *)
  let decoy = parse_reply (Serve.Server.handle_request s {|{"x":"\"id\":9","cmd":|}) in
  Alcotest.(check bool) "decoy id inside a string is not salvaged" true
    (id_of decoy = Some Serve.Jsonl.Null)

let test_op_alias_and_metrics () =
  let s = fresh_server () in
  let pong = parse_reply (Serve.Server.handle_request s {|{"id":5,"op":"ping"}|}) in
  Alcotest.(check bool) "op works as a cmd alias" true (is_ok pong);
  let r = parse_reply (Serve.Server.handle_request s {|{"id":6,"op":"metrics"}|}) in
  Alcotest.(check bool) "metrics reply ok" true (is_ok r);
  match Serve.Jsonl.str_member "metrics" r with
  | None -> Alcotest.fail "metrics reply carries an exposition"
  | Some text ->
    let contains sub =
      let n = String.length text and m = String.length sub in
      let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "exposition has TYPE lines" true (contains "# TYPE");
    Alcotest.(check bool) "exposition reports request counter" true
      (contains "clara_serve_requests_total")

let test_handle_p4lite () =
  let s = fresh_server () in
  let q =
    {|{"id":4,"cmd":"analyze","p4lite":{"name":"tinyacl","tables":[{"name":"acl","keys":["ip_src"],"actions":["drop","forward:1"],"default":"forward:0","size":16}]}}|}
  in
  let r = parse_reply (Serve.Server.handle_request s q) in
  Alcotest.(check bool) "inline program analyzed" true (is_ok r);
  Alcotest.(check (option string)) "labelled by program name" (Some "tinyacl")
    (Serve.Jsonl.str_member "nf" r);
  let r2 = parse_reply (Serve.Server.handle_request s q) in
  Alcotest.(check bool) "same program hits the cache" true
    (Serve.Jsonl.member "cached" r2 = Some (Serve.Jsonl.Bool true));
  (* inline programs always parse fully: a hit, but on the slow path *)
  Alcotest.(check (option string)) "p4lite hits stay on the slow path" (Some "slow")
    (Serve.Jsonl.str_member "path" r2);
  let badfield =
    parse_reply
      (Serve.Server.handle_request s
         {|{"cmd":"analyze","p4lite":{"tables":[{"name":"t","keys":["no_such_field"],"actions":["drop"]}]}}|})
  in
  Alcotest.(check bool) "bad field rejected" false (is_ok badfield)

(* -- 8 concurrent clients against the real socket server -- *)

let connect_with_retry path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go attempts =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
      Unix.sleepf 0.05;
      go (attempts - 1)
  in
  go 100

let client_round path request =
  let fd = connect_with_retry path in
  let out = Unix.out_channel_of_descr fd in
  output_string out (request ^ "\n");
  flush out;
  let line = input_line (Unix.in_channel_of_descr fd) in
  Unix.close fd;
  line

(* -- a pipelined batch through the real serving loop -- *)

let test_pipelined_batch () =
  with_jobs 4 (fun () ->
      let s = fresh_server () in
      let path = Filename.temp_file "clara_serve_test" ".sock" in
      Sys.remove path;
      let srv = Domain.spawn (fun () -> Serve.Server.run s ~socket_path:path) in
      let replies =
        Fun.protect ~finally:(fun () ->
            Serve.Server.request_drain s;
            Domain.join srv)
        @@ fun () ->
        let fd = connect_with_retry path in
        let requests =
          String.concat ""
            (List.map
               (fun (id, nf) ->
                 Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"mixed"}|} id nf
                 ^ "\n")
               [ (1, "tcpack"); (2, "udpipencap"); (3, "tcpack"); (4, "anonipaddr") ])
        in
        let n = Unix.write_substring fd requests 0 (String.length requests) in
        Alcotest.(check int) "whole batch written" (String.length requests) n;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let ic = Unix.in_channel_of_descr fd in
        let replies = List.init 4 (fun _ -> input_line ic) |> List.map parse_reply in
        close_in ic;
        replies
      in
      List.iteri
        (fun i r ->
          Alcotest.(check bool) (Printf.sprintf "reply %d ok" (i + 1)) true (is_ok r);
          Alcotest.(check (option (float 0.0)))
            (Printf.sprintf "reply %d keeps its id" (i + 1))
            (Some (float_of_int (i + 1)))
            (Serve.Jsonl.num_member "id" r))
        replies;
      (* requests 1 and 3 share a key: one analysis, identical reports *)
      let report i = Serve.Jsonl.str_member "report" (List.nth replies i) in
      Alcotest.(check (option string)) "duplicate keys share one report" (report 0) (report 2))

let test_concurrent_burst () =
  with_jobs 4 (fun () ->
      let s = fresh_server () in
      let path = Filename.temp_file "clara_serve_test" ".sock" in
      Sys.remove path;
      let nfs = [| "tcpack"; "udpipencap" |] in
      let clients =
        List.init 8 (fun i ->
            Domain.spawn (fun () ->
                let nf = nfs.(i mod 2) in
                let req =
                  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"mixed"}|} i nf
                in
                (nf, client_round path req)))
      in
      (* joins the burst from a helper domain, then asks the (main-domain)
         server to stop *)
      let closer =
        Domain.spawn (fun () ->
            let replies = List.map Domain.join clients in
            let bye = client_round path {|{"id":99,"cmd":"shutdown"}|} in
            (replies, bye))
      in
      Serve.Server.run s ~socket_path:path;
      let replies, bye = Domain.join closer in
      Alcotest.(check bool) "shutdown acknowledged" true (is_ok (parse_reply bye));
      Alcotest.(check int) "8 replies" 8 (List.length replies);
      let report_of line = Serve.Jsonl.str_member "report" (parse_reply line) in
      List.iter
        (fun (nf, line) ->
          let r = parse_reply line in
          Alcotest.(check bool) ("burst reply ok for " ^ nf) true (is_ok r);
          Alcotest.(check (option string)) ("burst reply names " ^ nf) (Some nf)
            (Serve.Jsonl.str_member "nf" r))
        replies;
      (* every client asking for the same NF got the identical report *)
      Array.iter
        (fun nf ->
          match List.filter (fun (n, _) -> n = nf) replies with
          | (_, first) :: rest ->
            List.iter
              (fun (_, line) ->
                Alcotest.(check (option string))
                  ("consistent report for " ^ nf)
                  (report_of first) (report_of line))
              rest
          | [] -> Alcotest.fail "burst covered both NFs")
        nfs;
      Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists path);
      Alcotest.(check int) "served all 9 requests" 9 (Serve.Server.served s))

(* -- Lineio -- *)

(* SIGALRM fires every 10 ms while [write_all] is blocked on a peer that
   is not reading yet: the payload is far larger than a socket buffer.
   The first signal may only cut a write short; a later one interrupts a
   write that has sent nothing, so the syscall fails with [EINTR].  The
   peer starts draining after three signals.  Every byte must arrive
   exactly once and [write_all] must return normally. *)
let test_write_all_survives_signal () =
  let payload = String.init (4 lsl 20) (fun i -> Char.chr (32 + (i * 7 mod 95))) in
  let n = String.length payload in
  let fired = Atomic.make 0 and writer_done = Atomic.make false in
  let timer period = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period }) in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Atomic.incr fired)) in
  Fun.protect
    ~finally:(fun () ->
      timer 0.0;
      Sys.set_signal Sys.sigalrm previous;
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  let reader =
    Domain.spawn (fun () ->
        while Atomic.get fired < 3 && not (Atomic.get writer_done) do
          Unix.sleepf 0.001
        done;
        timer 0.0;
        let got = Buffer.create n and chunk = Bytes.create 65536 in
        let rec drain () =
          if Buffer.length got < n then
            match Unix.read b chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | r ->
              Buffer.add_subbytes got chunk 0 r;
              drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        Buffer.contents got)
  in
  timer 0.01;
  let wrote =
    match Serve.Lineio.write_all a payload with
    | () -> Ok ()
    | exception Unix.Unix_error (err, fn, _) -> Error (fn ^ ": " ^ Unix.error_message err)
  in
  Atomic.set writer_done true;
  if Result.is_error wrote then Unix.shutdown a Unix.SHUTDOWN_SEND;
  let received = Domain.join reader in
  Alcotest.(check (result unit string)) "write_all returns normally" (Ok ()) wrote;
  Alcotest.(check bool) "signals fired during the write" true (Atomic.get fired >= 3);
  Alcotest.(check int) "every byte arrives" n (String.length received);
  Alcotest.(check bool) "exactly once, in order" true (String.equal payload received)

(* -- Lineio's splitter: random streams cut at random points -- *)

let rec write_fragments rng fd s pos =
  if pos < String.length s then begin
    let len = min (String.length s - pos) (1 + Random.State.int rng 9000) in
    Serve.Lineio.write_all fd (String.sub s pos len);
    if Random.State.bool rng then Unix.sleepf 0.0002;
    write_fragments rng fd s (pos + len)
  end

(* Every byte up to EOF, within [timeout_s]. *)
let read_to_eof fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let got = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then Alcotest.fail "no EOF before the deadline"
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents got
        | r ->
          Buffer.add_subbytes got chunk 0 r;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* Blank lines, lines longer than one 8 KiB read, and '\r' endings, then
   an unterminated tail. *)
let random_stream rng =
  let line () =
    match Random.State.int rng 6 with
    | 0 -> ""
    | 1 -> String.make (1 + Random.State.int rng 3) ' ' ^ "\r"
    | 2 -> String.init (8192 + Random.State.int rng 12000) (fun k -> Char.chr (97 + (k mod 26)))
    | 3 -> {|{"id":1}|} ^ "\r"
    | _ -> String.init (Random.State.int rng 40) (fun _ -> Char.chr (32 + Random.State.int rng 95))
  in
  let lines = List.init (Random.State.int rng 12) (fun _ -> line ()) in
  let tail = String.init (Random.State.int rng 30) (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
  String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail

let prop_read_lines_splits =
  QCheck.Test.make ~name:"read_lines returns the complete lines, the tail as residue" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let stream = random_stream rng in
      let parts = String.split_on_char '\n' stream in
      let n = List.length parts - 1 in
      let complete = List.filteri (fun i _ -> i < n) parts and tail = List.nth parts n in
      let r, w = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
      let writer =
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> write_fragments rng w stream 0))
      in
      (* two calls, so the residue of the first carries into the second *)
      let k = n / 2 in
      let read ~residue n =
        match Serve.Lineio.read_lines r ~residue ~n ~timeout_s:10.0 with
        | Ok x -> x
        | Error _ -> Alcotest.failf "read_lines failed on seed %d" seed
      in
      let first, residue = read ~residue:"" k in
      let second, residue = read ~residue (n - k) in
      let rest = read_to_eof r ~timeout_s:10.0 in
      Domain.join writer;
      first @ second = complete && residue ^ rest = tail)

(* -- Evloop: its bytes go through Lineio -- *)

let fresh_socket_path tag =
  let path = Filename.temp_file tag ".sock" in
  Sys.remove path;
  path

let rec connect_retry path attempts =
  match Serve.Lineio.connect ~socket_path:path with
  | Ok fd -> fd
  | Error e when attempts = 0 -> Alcotest.failf "connect %s: %s" path e
  | Error _ ->
    Unix.sleepf 0.01;
    connect_retry path (attempts - 1)

(* [Evloop.run] on this domain (where a process signal lands), answering
   every line in its round with [handle_batch], while [client path] runs
   on another; the loop stops once the client returns.  Returns the
   loop's I/O errors. *)
let with_loop handle_batch client =
  let path = fresh_socket_path "clara_evloop" in
  let control = Serve.Evloop.control () in
  let errors = ref [] in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Serve.Evloop.request_stop control) (fun () -> client path))
  in
  let handler =
    { Serve.Evloop.handle_batch =
        (fun batches ->
          List.map Serve.Evloop.filled (handle_batch (List.concat_map snd batches)));
      watch = (fun () -> []);
      service = (fun _ -> false);
      on_close = ignore;
      on_tick = ignore }
  in
  Serve.Evloop.run ~name:"test" ~socket_path:path ~max_clients:4 ~control ~handler
    ~reject:(fun () -> "{}") ~on_disconnect:(fun ~fn:_ _ -> ())
    ~on_error:(fun ~ctx ~fn err -> errors := Printf.sprintf "%s %s: %s" ctx fn (Unix.error_message err) :: !errors);
  Domain.join d;
  !errors

(* SIGALRM fires every 10 ms while the loop is blocked flushing a 1 MiB
   reply to a client that is not reading yet; the client starts reading
   after three signals.  A write a signal interrupts after earlier 64 KiB
   chunks went out must not lose their count: the reply arrives exactly
   once, byte for byte. *)
let test_flush_survives_signal () =
  let reply = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i * 7 mod 26))) in
  let fired = Atomic.make 0 in
  let timer period =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })
  in
  let received = ref "" in
  let errors =
    Serve.Evloop.with_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Atomic.incr fired))
    @@ fun () ->
    Fun.protect ~finally:(fun () -> timer 0.0) @@ fun () ->
    with_loop
      (fun lines ->
        timer 0.01;
        List.map (fun _ -> reply) lines)
      (fun path ->
        let fd = connect_retry path 200 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        Serve.Lineio.write_all fd "go\n";
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get fired < 3 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        timer 0.0;
        received := read_to_eof fd ~timeout_s:10.0)
  in
  Alcotest.(check (list string)) "no loop I/O errors" [] errors;
  Alcotest.(check bool) "signals fired during the flush" true (Atomic.get fired >= 3);
  Alcotest.(check int) "every byte arrives once" (String.length reply + 1) (String.length !received);
  Alcotest.(check bool) "byte for byte" true (String.equal (reply ^ "\n") !received)

(* An echo loop fed one stream in random fragments: one reply per
   non-blank line, in order, then the trimmed final unterminated line at
   EOF. *)
let test_evloop_fragmented_stream () =
  let rng = Random.State.make [| 21 |] in
  let lines =
    [ {|{"id":1}|}; ""; "  \r"; String.make 70_000 'x'; {|{"id":2}|} ^ "\r"; "\t"; "last but one" ]
  in
  let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ "  final line \r" in
  let received = ref "" in
  let errors =
    with_loop Fun.id (fun path ->
        let fd = connect_retry path 200 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        write_fragments rng fd stream 0;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        received := read_to_eof fd ~timeout_s:10.0)
  in
  Alcotest.(check (list string)) "no loop I/O errors" [] errors;
  Alcotest.(check (list string)) "one reply per non-blank line, then the final line"
    (List.filter (fun l -> String.trim l <> "") lines @ [ "final line"; "" ])
    (String.split_on_char '\n' !received)

(* -- the completion contract through the real loop --

   A worker answers hits while a miss is analyzed: the miss runs as
   cooperative slices between the loop's waits, and each connection gets
   its replies in request order.  Each case front-loads the miss queue
   from a connection of its own (three distinct slow analyses), so the
   lines under test wait behind tens of milliseconds of cold work, far
   longer than a hit's round trip. *)

(* A client connection; [quiet] says no reply bytes are waiting. *)
type peer = { fd : Unix.file_descr; ic : in_channel }

let peer path =
  let fd = connect_retry path 200 in
  { fd; ic = Unix.in_channel_of_descr fd }

let send p lines = Serve.Lineio.write_all p.fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))
let recv p = parse_reply (input_line p.ic)
let quiet p = match Unix.select [ p.fd ] [] [] 0.0 with [], _, _ -> true | _ -> false
let close_peer p = close_in p.ic

let analyze ?(extra = "") id nf workload =
  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"%s}|} id nf workload extra

(* Three slow cold analyses (the corpus's costliest keys); [settle]
   gives the loop time to start the first, so the lines sent next are
   planned between its slices. *)
let cold_work = [ analyze 101 "wepdecap" "small"; analyze 102 "wepdecap" "large"; analyze 103 "cmsketch" "small" ]
let settle () = Unix.sleepf 0.003

(* [body server path] against a server running on its own domain. *)
let with_running ?(server = fresh_server ()) body =
  let path = fresh_socket_path "clara_contract" in
  let loop = Domain.spawn (fun () -> Serve.Server.run server ~socket_path:path) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_drain server;
      Domain.join loop)
    (fun () -> body server path)

let id_of r = Option.map int_of_float (Serve.Jsonl.num_member "id" r)
let cached r = Serve.Jsonl.member "cached" r = Some (Serve.Jsonl.Bool true)

let test_hit_beside_suspended_miss () =
  with_running @@ fun _ path ->
  let loader = peer path and a = peer path and b = peer path in
  send b [ analyze 1 "tcpack" "mixed" ];
  Alcotest.(check bool) "warm-up analyzed" false (cached (recv b));
  send loader cold_work;
  settle ();
  send a [ analyze 2 "Mazu-NAT" "small" ];
  send b [ analyze 3 "tcpack" "mixed" ];
  let hit = recv b in
  Alcotest.(check bool) "the miss is still owed" true (quiet a);
  Alcotest.(check (option int)) "hit answered" (Some 3) (id_of hit);
  Alcotest.(check (option string)) "on the fast path" (Some "fast")
    (Serve.Jsonl.str_member "path" hit);
  let miss = recv a in
  Alcotest.(check bool) "then the miss, analyzed" true (is_ok miss && not (cached miss));
  List.iter (fun _ -> Alcotest.(check bool) "cold work ok" true (is_ok (recv loader))) cold_work;
  List.iter close_peer [ loader; a; b ]

(* [miss; hit] pipelined on one connection come back in request order:
   the hit is answered at once but waits in its connection's reply FIFO
   behind the miss, while another connection is answered meanwhile. *)
let test_pipelined_in_order () =
  with_running @@ fun _ path ->
  let loader = peer path and a = peer path and b = peer path in
  send a [ analyze 1 "tcpack" "mixed" ];
  ignore (recv a);
  send loader cold_work;
  settle ();
  send a [ analyze 2 "Mazu-NAT" "small"; analyze 3 "tcpack" "mixed" ];
  send b [ {|{"id":4,"cmd":"stats"}|} ];
  let stats = recv b in
  Alcotest.(check bool) "nothing reached the pipelined connection yet" true (quiet a);
  Alcotest.(check (option (float 0.0))) "its hit was answered already" (Some 1.0)
    (Serve.Jsonl.num_member "cache_hits" stats);
  let first = recv a in
  let second = recv a in
  Alcotest.(check (list (option int))) "request order" [ Some 2; Some 3 ] [ id_of first; id_of second ];
  Alcotest.(check bool) "miss then hit" true ((not (cached first)) && cached second);
  List.iter (fun _ -> ignore (recv loader)) cold_work;
  List.iter close_peer [ loader; a; b ]

(* A reload planned while misses are queued swaps the models at once;
   the queued jobs finish on the lanes they were planned on and install
   nothing into the new flow table. *)
let test_reload_with_queued_miss () =
  let dir = Filename.temp_file "clara_contract_bundle" ".d" in
  Sys.remove dir;
  let manifest =
    { Persist.Bundle.seed = 1; epochs = 1; corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir manifest (Lazy.force models);
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  with_running @@ fun server path ->
  let loader = peer path and a = peer path and b = peer path and c = peer path in
  send loader cold_work;
  settle ();
  send a [ analyze 1 "Mazu-NAT" "small" ];
  send b [ Printf.sprintf {|{"id":2,"cmd":"reload","bundle":"%s"}|} dir ];
  let reloaded = recv b in
  Alcotest.(check bool) "reload answered while the miss is queued" true (quiet a);
  Alcotest.(check bool) "reload ok" true (is_ok reloaded);
  Alcotest.(check string) "new version serving" (Persist.Bundle.version manifest)
    (Serve.Server.version server);
  (* the same key after the reload, its old job still queued: a job of
     its own, on the new models *)
  send c [ analyze 3 "Mazu-NAT" "small" ];
  let miss = recv a in
  Alcotest.(check bool) "queued miss answered" true (is_ok miss && not (cached miss));
  Alcotest.(check bool) "the key is analyzed again" false (cached (recv c));
  List.iter (fun _ -> Alcotest.(check bool) "cold work ok" true (is_ok (recv loader))) cold_work;
  send b [ {|{"id":4,"cmd":"stats"}|} ];
  Alcotest.(check (option (float 0.0)))
    "only the new job installed into the new table" (Some 1.0)
    (Serve.Jsonl.num_member "cache_installs" (recv b));
  List.iter close_peer [ loader; a; b; c ]

(* SIGTERM with a miss queued: the drain keeps answering hits at once,
   answers the queued miss when its job is done, then closes. *)
let test_sigterm_drain_answers_queued_miss () =
  let server = fresh_server () in
  with_running ~server @@ fun _ path ->
  let loader = peer path and a = peer path and b = peer path in
  send b [ analyze 1 "tcpack" "mixed" ];
  ignore (recv b);
  send loader cold_work;
  settle ();
  send a [ analyze 2 "Mazu-NAT" "small" ];
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  send b [ analyze 3 "tcpack" "mixed" ];
  let hit = recv b in
  Alcotest.(check bool) "hit answered during the drain, miss still owed" true (quiet a);
  Alcotest.(check bool) "hit ok" true (is_ok hit && cached hit);
  let miss = recv a in
  Alcotest.(check bool) "queued miss answered by the drain" true (is_ok miss);
  List.iter (fun _ -> Alcotest.(check bool) "cold work ok" true (is_ok (recv loader))) cold_work;
  List.iter
    (fun p ->
      match input_line p.ic with
      | line -> Alcotest.failf "expected EOF after the drain, got %s" line
      | exception End_of_file -> close_peer p)
    [ loader; a; b ];
  Alcotest.(check bool) "drained" true (Serve.Server.draining server)

let flagged name r = Serve.Jsonl.member name r = Some (Serve.Jsonl.Bool true)

(* Lines waiting on queued misses count against [max_pending]: the loop
   keeps reading while jobs run, so the bound is what stops the queue
   from growing without limit. *)
let test_queued_misses_hold_admission () =
  let server = Serve.Server.create ~cache_capacity:8 ~max_pending:3 (Lazy.force models) in
  with_running ~server @@ fun _ path ->
  let loader = peer path and b = peer path in
  send loader cold_work;
  settle ();
  send b [ {|{"id":1,"cmd":"ping"}|} ];
  let shed = recv b in
  Alcotest.(check bool) "shed while three misses wait" true (flagged "overloaded" shed);
  Alcotest.(check (option int)) "id echoed" (Some 1) (id_of shed);
  List.iter (fun _ -> Alcotest.(check bool) "cold work ok" true (is_ok (recv loader))) cold_work;
  send b [ {|{"id":2,"cmd":"ping"}|} ];
  Alcotest.(check bool) "admitted once they are answered" true (is_ok (recv b));
  List.iter close_peer [ loader; b ]

(* A waiting line whose budget runs out is answered at once, not when
   the work queued ahead of it is done. *)
let test_queued_deadline_answered_at_once () =
  with_running @@ fun _ path ->
  let loader = peer path and a = peer path in
  send loader cold_work;
  send a [ analyze ~extra:{|,"deadline_ms":1|} 1 "Mazu-NAT" "small" ];
  let late = recv a in
  Alcotest.(check bool) "answered while the cold work runs" true (quiet loader);
  Alcotest.(check bool) "deadline_exceeded" true (flagged "deadline_exceeded" late);
  List.iter (fun _ -> Alcotest.(check bool) "cold work ok" true (is_ok (recv loader))) cold_work;
  List.iter close_peer [ loader; a ]

(* A shutdown while a job is suspended: the loop stops at once, the job
   is discontinued (its [Fun.protect] releases the lane mutex) and every
   line still waiting is answered retry-later — the flight recorder holds
   each one — so nothing is left queued: the same key is analyzed afresh
   on the loop's own domain. *)
let test_shutdown_discontinues_suspended_job () =
  let server = fresh_server () in
  let path = fresh_socket_path "clara_contract" in
  let client =
    Domain.spawn (fun () ->
        let loader = peer path and b = peer path in
        send loader cold_work;
        settle ();
        send b [ {|{"id":1,"cmd":"shutdown"}|} ];
        let stopping = recv b in
        List.iter close_peer [ loader; b ];
        stopping)
  in
  Serve.Server.run server ~socket_path:path;
  Alcotest.(check bool) "shutdown answered" true (is_ok (Domain.join client));
  let outcome line =
    List.find_map
      (fun (r : Obs.Flight.record) ->
        if r.Obs.Flight.request = line then Some r.Obs.Flight.outcome else None)
      (Obs.Flight.snapshot (Serve.Server.flight server))
  in
  List.iter
    (fun line ->
      Alcotest.(check (option string)) "waiting line answered retry-later" (Some "overloaded")
        (outcome line))
    cold_work;
  let again = parse_reply (Serve.Server.handle_request server (List.hd cold_work)) in
  Alcotest.(check bool) "analyzed afresh" true (is_ok again && not (cached again))

(* -- Lineio.conn -- *)

let with_listener f =
  let path = fresh_socket_path "clara_conn" in
  let l = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX path);
  Unix.listen l 4;
  Fun.protect
    ~finally:(fun () ->
      Unix.close l;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f l path)

let connecting l = match Unix.select [ l ] [] [] 0.0 with [], _, _ -> false | _ -> true

let peer_lines fd n =
  match Serve.Lineio.read_lines fd ~residue:"" ~n ~timeout_s:5.0 with
  | Ok (lines, _) -> lines
  | Error _ -> Alcotest.fail "peer read"

let error_name = function
  | Ok _ -> "Ok"
  | Error Serve.Lineio.Timeout -> "Timeout"
  | Error Serve.Lineio.Closed -> "Closed"
  | Error (Serve.Lineio.Io _) -> "Io"

let test_conn_lifecycle () =
  let module L = Serve.Lineio in
  with_listener @@ fun l path ->
  let c = L.conn ~socket_path:path in
  Alcotest.(check bool) "no connect before the first send" false (connecting l);
  Alcotest.(check string) "recv before any send" "Closed" (error_name (L.recv c ~n:1 ~timeout_s:0.1));
  Alcotest.(check string) "first send" "Ok" (error_name (L.send c [ "a"; "b" ]));
  Alcotest.(check bool) "the first send connects" true (connecting l);
  let fd, _ = Unix.accept ~cloexec:true l in
  Alcotest.(check (list string)) "both lines arrive" [ "a"; "b" ] (peer_lines fd 2);
  (* two replies in one write, then the peer hangs up: the second reply
     can only come from the residue *)
  L.write_all fd "r1\nr2\n";
  Alcotest.(check (result (list string) string)) "first reply" (Ok [ "r1" ])
    (Result.map_error (fun _ -> "error") (L.recv c ~n:1 ~timeout_s:5.0));
  Unix.close fd;
  Alcotest.(check (result (list string) string)) "second reply from the residue" (Ok [ "r2" ])
    (Result.map_error (fun _ -> "error") (L.recv c ~n:1 ~timeout_s:5.0));
  Alcotest.(check string) "a peer that hung up" "Closed" (error_name (L.recv c ~n:1 ~timeout_s:5.0));
  (* the error closed the connection; the next send reconnects *)
  Alcotest.(check bool) "no reconnect before the next send" false (connecting l);
  Alcotest.(check string) "send after the error" "Ok" (error_name (L.send c [ "c" ]));
  let fd, _ = Unix.accept ~cloexec:true l in
  Alcotest.(check (list string)) "reconnected" [ "c" ] (peer_lines fd 1);
  L.write_all fd "r3\n";
  Alcotest.(check (result string string)) "call" (Ok "r3")
    (Result.map_error (fun _ -> "error") (L.call c ~timeout_s:5.0 "d"));
  Alcotest.(check (list string)) "call sent its line" [ "d" ] (peer_lines fd 1);
  L.close c;
  L.close c;
  Alcotest.(check string) "close hangs up" "" (read_to_eof fd ~timeout_s:5.0);
  Unix.close fd;
  Alcotest.(check string) "send after close" "Ok" (error_name (L.send c [ "e" ]));
  Alcotest.(check bool) "the send after close reconnects" true (connecting l);
  L.close c

let test_conn_errors () =
  let module L = Serve.Lineio in
  let missing = L.conn ~socket_path:"/nonexistent/clara.sock" in
  (match L.call missing ~timeout_s:1.0 "x" with
  | Error (L.Io msg) ->
    Alcotest.(check bool) "names the failed call" true (String.starts_with ~prefix:"connect: " msg)
  | r -> Alcotest.failf "missing socket: %s" (error_name r));
  with_listener @@ fun l path ->
  let c = L.conn ~socket_path:path in
  (* connected through the backlog, never answered *)
  Alcotest.(check string) "a mute peer" "Timeout" (error_name (L.call c ~timeout_s:0.05 "x"));
  let fd, _ = Unix.accept ~cloexec:true l in
  Unix.close fd;
  Alcotest.(check string) "send" "Ok" (error_name (L.send c [ "y" ]));
  let fd, _ = Unix.accept ~cloexec:true l in
  (* read before hanging up: unread bytes would turn the EOF into a reset *)
  Alcotest.(check (list string)) "peer got the line" [ "y" ] (peer_lines fd 1);
  Unix.close fd;
  Alcotest.(check string) "a peer that hangs up" "Closed" (error_name (L.recv c ~n:1 ~timeout_s:5.0))

let () =
  Alcotest.run "serve"
    [ ( "jsonl",
        [ Alcotest.test_case "print/parse round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "salvage_member on malformed lines" `Quick test_salvage_member;
          Alcotest.test_case "one escaper round-trips every byte" `Quick
            test_escaper_round_trip ] );
      ( "server",
        [ Alcotest.test_case "valid query and cache hit" `Quick test_handle_valid_and_cached;
          Alcotest.test_case "error replies" `Quick test_handle_errors;
          Alcotest.test_case "id echo on errors" `Quick test_id_echo_on_errors;
          Alcotest.test_case "op alias and metrics" `Quick test_op_alias_and_metrics;
          Alcotest.test_case "inline p4lite program" `Quick test_handle_p4lite;
          Alcotest.test_case "pipelined batch through run" `Quick test_pipelined_batch;
          Alcotest.test_case "8-client concurrent burst" `Slow test_concurrent_burst ] );
      ( "lineio",
        [ Alcotest.test_case "write_all survives a signal mid-write" `Quick
            test_write_all_survives_signal;
          QCheck_alcotest.to_alcotest prop_read_lines_splits;
          Alcotest.test_case "conn: lazy open, residue, reconnect" `Quick test_conn_lifecycle;
          Alcotest.test_case "conn: Io, Timeout, Closed" `Quick test_conn_errors ] );
      ( "contract",
        [ Alcotest.test_case "a hit beside a suspended miss" `Quick test_hit_beside_suspended_miss;
          Alcotest.test_case "pipelined miss then hit, in order" `Quick test_pipelined_in_order;
          Alcotest.test_case "reload with a queued miss" `Quick test_reload_with_queued_miss;
          Alcotest.test_case "SIGTERM drain answers a queued miss" `Quick
            test_sigterm_drain_answers_queued_miss;
          Alcotest.test_case "queued misses count against max_pending" `Quick
            test_queued_misses_hold_admission;
          Alcotest.test_case "a waiting line's deadline answers at once" `Quick
            test_queued_deadline_answered_at_once;
          Alcotest.test_case "shutdown discontinues a suspended job" `Quick
            test_shutdown_discontinues_suspended_job ] );
      ( "evloop",
        [ Alcotest.test_case "flush survives a signal mid-write" `Quick
            test_flush_survives_signal;
          Alcotest.test_case "fragmented stream, one reply per line" `Quick
            test_evloop_fragmented_stream ] ) ]
