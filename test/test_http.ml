(** Tests for the HTTP telemetry exporter: endpoint bodies and statuses,
    equivalence of [GET /metrics] with the socket [metrics] command (same
    renderer, same metric families), error statuses for unknown paths /
    methods / garbage, and clean stop semantics. *)

let () = Obs.Log.set_sink Obs.Log.Off

(* -- raw HTTP over loopback TCP -- *)

let http_request ~port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let n = String.length raw in
      let sent = ref 0 in
      while !sent < n do
        sent := !sent + Unix.write_substring fd raw !sent (n - !sent)
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

type response = { status : string; headers : (string * string) list; body : string }

let parse_response resp =
  let len = String.length resp in
  let term =
    let rec scan i =
      if i + 3 >= len then Alcotest.failf "no header terminator in %S" resp
      else if
        resp.[i] = '\r' && resp.[i + 1] = '\n' && resp.[i + 2] = '\r' && resp.[i + 3] = '\n'
      then i
      else scan (i + 1)
    in
    scan 0
  in
  let head = String.sub resp 0 term in
  let body = String.sub resp (term + 4) (len - term - 4) in
  match String.split_on_char '\n' head |> List.map (fun l -> String.trim l) with
  | [] -> Alcotest.fail "empty response head"
  | status_line :: header_lines ->
    let status =
      match String.index_opt status_line ' ' with
      | Some i -> String.sub status_line (i + 1) (String.length status_line - i - 1)
      | None -> status_line
    in
    let headers =
      List.filter_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
          | None -> None)
        header_lines
    in
    { status; headers; body }

let get ~port path =
  parse_response
    (http_request ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path))

let header r name = List.assoc_opt name r.headers

(* -- server lifecycle shared by the suite -- *)

let with_http f =
  let h = Serve.Http.create ~port:0 () in
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop h;
      Domain.join d)
    (fun () -> f (Serve.Http.port h))

(* tiny models for the socket-command comparison *)
let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let type_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
  |> List.sort_uniq compare

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* -- tests -- *)

let test_healthz () =
  with_http @@ fun port ->
  let r = get ~port "/healthz" in
  Alcotest.(check string) "status" "200 OK" r.status;
  Alcotest.(check (option string)) "json content type" (Some "application/json")
    (header r "content-type");
  (match Serve.Jsonl.of_string r.body with
  | Error msg -> Alcotest.failf "healthz body is not JSON: %s" msg
  | Ok j ->
    Alcotest.(check (option string)) "ok flag" (Some "true")
      (Option.map Serve.Jsonl.to_string (Serve.Jsonl.member "ok" j));
    Alcotest.(check (option (float 0.0))) "pid" (Some (float_of_int (Unix.getpid ())))
      (Serve.Jsonl.num_member "pid" j);
    (match Serve.Jsonl.num_member "uptime_s" j with
    | Some u when u >= 0.0 -> ()
    | _ -> Alcotest.fail "uptime_s missing or negative"));
  Alcotest.(check (option string)) "content-length matches"
    (Some (string_of_int (String.length r.body)))
    (header r "content-length");
  Alcotest.(check (option string)) "one-shot connections" (Some "close")
    (header r "connection");
  (* query strings are stripped: the endpoints take no parameters *)
  let q = get ~port "/healthz?verbose=1" in
  Alcotest.(check string) "query string ignored" "200 OK" q.status;
  (* a wired renderer overrides the built-in document *)
  let doc = {|{"ok":true,"bundle":"b1","pid":4,"draining":false}|} in
  let h = Serve.Http.create ~health:(fun () -> doc) ~port:0 () in
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop h;
      Domain.join d)
    (fun () ->
      let r = get ~port:(Serve.Http.port h) "/healthz" in
      Alcotest.(check string) "custom health document served" doc r.body)

let test_metrics_matches_socket_command () =
  with_http @@ fun port ->
  let r = get ~port "/metrics" in
  Alcotest.(check string) "status" "200 OK" r.status;
  Alcotest.(check (option string)) "prometheus content type"
    (Some "text/plain; version=0.0.4; charset=utf-8")
    (header r "content-type");
  Alcotest.(check bool) "scrape counts itself" true
    (contains {|clara_http_requests_total{path="/metrics"}|} r.body);
  Alcotest.(check bool) "runtime gauges sampled" true
    (contains "clara_runtime_gc_heap_words" r.body);
  (* the socket `metrics` command uses the same renderer: identical
     metric families (values move between scrapes, families must not) *)
  let s = Serve.Server.create ~cache_capacity:4 (Lazy.force models) in
  let reply = Serve.Server.handle_request s {|{"id":1,"cmd":"metrics"}|} in
  let socket_text =
    match Serve.Jsonl.of_string reply with
    | Ok j -> (
      match Serve.Jsonl.str_member "metrics" j with
      | Some text -> text
      | None -> Alcotest.fail "metrics reply carries an exposition")
    | Error msg -> Alcotest.failf "unparseable metrics reply: %s" msg
  in
  let again = get ~port "/metrics" in
  Alcotest.(check (list string)) "same metric families as the socket command"
    (type_lines socket_text) (type_lines again.body)

let test_trace_json () =
  with_http @@ fun port ->
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    (fun () ->
      Obs.Span.with_ "http.test.span" (fun () -> ());
      let r = get ~port "/trace.json" in
      Alcotest.(check string) "status" "200 OK" r.status;
      Alcotest.(check (option string)) "json content type" (Some "application/json")
        (header r "content-type");
      match Serve.Jsonl.of_string r.body with
      | Error msg -> Alcotest.failf "trace body is not JSON: %s" msg
      | Ok j -> (
        match Serve.Jsonl.member "traceEvents" j with
        | Some (Serve.Jsonl.Arr evs) ->
          Alcotest.(check bool) "recorded span exported" true
            (List.exists
               (fun e -> Serve.Jsonl.str_member "name" e = Some "http.test.span")
               evs)
        | _ -> Alcotest.fail "traceEvents array missing"))

let test_errors () =
  with_http @@ fun port ->
  let missing = get ~port "/nope" in
  Alcotest.(check string) "unknown path" "404 Not Found" missing.status;
  Alcotest.(check string) "404 body names the condition" "not found\n" missing.body;
  Alcotest.(check (option string)) "404 is plain text"
    (Some "text/plain; charset=utf-8") (header missing "content-type");
  let post =
    parse_response
      (http_request ~port "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
  in
  Alcotest.(check string) "non-GET method" "405 Method Not Allowed" post.status;
  Alcotest.(check string) "405 body names the condition" "method not allowed\n" post.body;
  let garbage = parse_response (http_request ~port "GARBAGE\r\n\r\n") in
  Alcotest.(check string) "unparsable request line" "400 Bad Request" garbage.status;
  (* a head beyond the 8 KiB cap is dropped without a reply (the reader
     gives up rather than buffering unboundedly) *)
  let oversized =
    http_request ~port ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\nHost: x\r\n\r\n")
  in
  Alcotest.(check string) "oversized request head gets no reply" "" oversized;
  (* and the server is still fine afterwards *)
  let after = get ~port "/healthz" in
  Alcotest.(check string) "still serving after abuse" "200 OK" after.status

let test_flight_and_profile_endpoints () =
  (* without a wired renderer, /flight.json is a 404 like any unknown path *)
  with_http (fun port ->
      let r = get ~port "/flight.json" in
      Alcotest.(check string) "404 without a flight source" "404 Not Found" r.status);
  let doc = {|{"enabled":true,"recorded":3,"records":[]}|} in
  let h = Serve.Http.create ~flight:(fun () -> doc) ~port:0 () in
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop h;
      Domain.join d)
    (fun () ->
      let port = Serve.Http.port h in
      let r = get ~port "/flight.json" in
      Alcotest.(check string) "status" "200 OK" r.status;
      Alcotest.(check (option string)) "json content type" (Some "application/json")
        (header r "content-type");
      Alcotest.(check string) "body is the rendered snapshot" doc r.body;
      (* /profile.folded serves the global profiler's collapsed stacks *)
      Obs.Prof.reset ();
      ignore (Obs.Prof.enter "httptest.span");
      let p = get ~port "/profile.folded" in
      Obs.Prof.exit_ ();
      Obs.Prof.reset ();
      Alcotest.(check string) "profile status" "200 OK" p.status;
      Alcotest.(check (option string)) "profile is plain text"
        (Some "text/plain; charset=utf-8") (header p "content-type"))

let test_quality_endpoint () =
  (* without a wired renderer the path is just another 404 *)
  with_http (fun port ->
      let r = get ~port "/quality" in
      Alcotest.(check string) "404 without a quality source" "404 Not Found" r.status);
  (* with a renderer the endpoint serves whatever the renderer returns *)
  let doc = {|{"enabled":false,"rate":0,"probe":"http"}|} in
  let h = Serve.Http.create ~quality:(fun () -> doc) ~port:0 () in
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop h;
      Domain.join d)
    (fun () ->
      let port = Serve.Http.port h in
      let r = get ~port "/quality" in
      Alcotest.(check string) "status" "200 OK" r.status;
      Alcotest.(check (option string)) "json content type" (Some "application/json")
        (header r "content-type");
      Alcotest.(check string) "body is the rendered document" doc r.body;
      match Serve.Jsonl.of_string r.body with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "quality body is not JSON: %s" msg)

(* Repeated scrapes (including /quality) — and a stream of bad requests:
   404s, bad request lines, oversized heads — must not leak fds, and
   stopping the Obs.Runtime sampler afterwards must leave it cleanly
   stopped. *)
let test_fd_hygiene () =
  let fd_count () = Array.length (Sys.readdir "/proc/self/fd") in
  let h = Serve.Http.create ~quality:(fun () -> "{\"enabled\":false}") ~port:0 () in
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop h;
      Domain.join d)
    (fun () ->
      let port = Serve.Http.port h in
      Obs.Runtime.start ~period_s:0.05 ();
      (* warm up allocators / lazy metric registration before the baseline *)
      ignore (get ~port "/healthz");
      ignore (get ~port "/metrics");
      ignore (get ~port "/quality");
      ignore (get ~port "/nope");
      ignore (http_request ~port "GARBAGE\r\n\r\n");
      let oversized = "GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n" in
      ignore (http_request ~port oversized);
      let baseline = fd_count () in
      for _ = 1 to 25 do
        ignore (get ~port "/healthz");
        ignore (get ~port "/metrics");
        ignore (get ~port "/quality");
        ignore (get ~port "/nope");
        ignore (http_request ~port "GARBAGE\r\n\r\n");
        ignore (http_request ~port oversized)
      done;
      Obs.Runtime.stop ();
      Alcotest.(check int) "no fds leaked across 150 requests" baseline (fd_count ());
      Alcotest.(check bool) "runtime sampler stopped" false (Obs.Runtime.running ()))

let test_stop_closes_listener () =
  let h = Serve.Http.create ~port:0 () in
  let port = Serve.Http.port h in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  let r = get ~port "/healthz" in
  Alcotest.(check string) "serving before stop" "200 OK" r.status;
  Serve.Http.stop h;
  Serve.Http.stop h;
  Domain.join d;
  (match
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () -> Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
   with
  | () -> Alcotest.fail "listener still accepting after stop"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  (* the port is reusable straight away (SO_REUSEADDR) *)
  let h2 = Serve.Http.create ~port () in
  let d2 = Domain.spawn (fun () -> Serve.Http.run h2) in
  let r2 = get ~port "/healthz" in
  Alcotest.(check string) "rebound after stop" "200 OK" r2.status;
  Serve.Http.stop h2;
  Domain.join d2

let () =
  Alcotest.run "http"
    [ ( "endpoints",
        [ Alcotest.test_case "healthz" `Quick test_healthz;
          Alcotest.test_case "metrics matches the socket command" `Slow
            test_metrics_matches_socket_command;
          Alcotest.test_case "trace.json export" `Quick test_trace_json;
          Alcotest.test_case "quality endpoint" `Quick test_quality_endpoint;
          Alcotest.test_case "flight and profile endpoints" `Quick
            test_flight_and_profile_endpoints;
          Alcotest.test_case "error statuses" `Quick test_errors ] );
      ( "lifecycle",
        [ Alcotest.test_case "stop closes the listener" `Quick test_stop_closes_listener;
          Alcotest.test_case "fd hygiene under repeated scrapes" `Quick test_fd_hygiene ] ) ]
