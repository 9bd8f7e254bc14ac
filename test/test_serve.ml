(** Tests for the insight service: the hand-rolled JSON, the request
    handler (valid / unknown-NF / malformed / inline p4lite), a pipelined
    batch through the socket server, and a real 8-client burst against it
    with a 4-domain pool. *)

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
            test_write_all_survives_signal ] ) ]
