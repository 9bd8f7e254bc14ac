(** Tests for the forensics stack: the continuous profiler (span-stack
    sampling, exact allocation attribution, folded-stack export), the
    flight recorder (one ring, eviction, clipping, trigger
    policy, dump format), the server integration (postmortem records for
    fast/slow/error/deadline/shed replies, the [flight]/[profile] socket
    commands), and deterministic replay: a dump of a soak-style
    mixed-traffic run must reproduce byte-identical replies modulo the
    declared volatile fields, under CLARA_JOBS=1 and =4 alike, and a
    tampered reply must be caught. *)

let () = Obs.Log.set_sink Obs.Log.Off

let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- Obs.Prof: span hooks and allocation attribution -- *)

(* Minor-heap churn the exact-allocation fallback can see: small conses
   stay in the minor heap (large arrays would go straight to the major
   heap and bypass [Gc.minor_words]). *)
let churn n =
  let acc = ref [] in
  for i = 1 to n do
    acc := (i, i) :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

let test_prof_hooks_and_alloc () =
  Obs.Prof.reset ();
  ignore (Obs.Prof.enter "pf.outer");
  churn 1000;
  ignore (Obs.Prof.enter "pf.inner");
  churn 2000;
  Obs.Prof.exit_ ();
  churn 500;
  Obs.Prof.exit_ ();
  let stacks = Obs.Prof.stacks () in
  let find path = List.find_opt (fun (s : Obs.Prof.stack) -> s.Obs.Prof.path = path) stacks in
  (match find "pf.outer;pf.inner" with
  | Some s ->
    if s.Obs.Prof.alloc_w <= 0.0 then
      Alcotest.failf "inner frame attributed no allocation (%.0f words)" s.Obs.Prof.alloc_w
  | None -> Alcotest.fail "pf.outer;pf.inner stack missing");
  (match find "pf.outer" with
  | Some s ->
    (* self-allocation only: the inner frame's words must not double-count *)
    if s.Obs.Prof.alloc_w <= 0.0 then Alcotest.fail "outer frame attributed no self-allocation";
    if s.Obs.Prof.alloc_w > 100_000.0 then
      Alcotest.failf "outer self-allocation implausibly large: %.0f words" s.Obs.Prof.alloc_w
  | None -> Alcotest.fail "pf.outer stack missing");
  let folded = Obs.Prof.folded_alloc () in
  Alcotest.(check bool) "folded_alloc lists the nested path" true
    (contains "pf.outer;pf.inner " folded);
  Obs.Prof.reset ();
  Alcotest.(check string) "reset clears the tables" "" (Obs.Prof.folded_alloc ())

let test_prof_ticker_samples () =
  Obs.Prof.reset ();
  Alcotest.(check bool) "profiler starts disabled" false (Obs.Prof.enabled ());
  Obs.Prof.start ~hz:250.0 ();
  Alcotest.(check bool) "start flips enabled" true (Obs.Prof.enabled ());
  Fun.protect ~finally:Obs.Prof.stop (fun () ->
      (* spin inside a span long enough for the 250 Hz ticker to land at
         least once, even on a single-core box *)
      Obs.Span.with_ "pf.spin" (fun () ->
          let t0 = Unix.gettimeofday () in
          let acc = ref 0.0 in
          while Unix.gettimeofday () -. t0 < 0.25 do
            for i = 1 to 1000 do
              acc := !acc +. float_of_int i
            done
          done;
          ignore (Sys.opaque_identity !acc)));
  Alcotest.(check bool) "stop flips enabled" false (Obs.Prof.enabled ());
  let folded = Obs.Prof.folded () in
  Alcotest.(check bool) "ticker sampled the spinning span" true (contains "pf.spin " folded);
  (* the JSON document parses and reports what happened *)
  (match Serve.Jsonl.of_string (Obs.Prof.to_json_string ()) with
  | Error msg -> Alcotest.failf "profile json unparseable: %s" msg
  | Ok j ->
    (match Serve.Jsonl.num_member "samples" j with
    | Some n when n >= 1.0 -> ()
    | _ -> Alcotest.fail "profile json reports no samples");
    (match Serve.Jsonl.member "stacks" j with
    | Some (Serve.Jsonl.Arr (_ :: _)) -> ()
    | _ -> Alcotest.fail "profile json has no stacks"));
  Obs.Prof.reset ()

(* -- Obs.Flight: the ring, eviction, clipping, triggers, dumps -- *)

let mk_record fl i =
  Obs.Flight.record fl ~trace:(Printf.sprintf "t-%d" i) ~path:"fast"
    ~latency_us:1.0 ~outcome:"ok"
    ~request:(Printf.sprintf "req-%d" i)
    ~reply:(Printf.sprintf "rep-%d" i)

let test_flight_ring () =
  let fl = Obs.Flight.create ~capacity:6 ~max_bytes:64 () in
  Alcotest.(check bool) "enabled" true (Obs.Flight.enabled fl);
  Alcotest.(check int) "capacity counts slots in total" 6 (Obs.Flight.capacity fl);
  for i = 0 to 9 do
    mk_record fl i
  done;
  Alcotest.(check int) "recorded counts every write" 10 (Obs.Flight.recorded fl);
  let snap = Obs.Flight.snapshot fl in
  Alcotest.(check int) "the ring holds the newest 6 in seq order" 6 (List.length snap);
  let seqs = List.map (fun (r : Obs.Flight.record) -> r.Obs.Flight.seq) snap in
  Alcotest.(check (list int)) "snapshot is seq-ordered, oldest evicted" [ 4; 5; 6; 7; 8; 9 ]
    seqs;
  (* clipping marks the record non-replayable *)
  Obs.Flight.record fl ~trace:"t" ~path:"slow" ~latency_us:1.0 ~outcome:"ok"
    ~request:(String.make 200 'x') ~reply:"r";
  let last =
    List.nth (Obs.Flight.snapshot fl) (List.length (Obs.Flight.snapshot fl) - 1)
  in
  Alcotest.(check bool) "oversized request marks truncated" true last.Obs.Flight.truncated;
  Alcotest.(check int) "stored bytes are clipped" 64 (String.length last.Obs.Flight.request)

let test_flight_disabled () =
  let fl = Obs.Flight.create ~capacity:0 () in
  Alcotest.(check bool) "capacity 0 disables" false (Obs.Flight.enabled fl);
  mk_record fl 0;
  Alcotest.(check int) "disabled recorder stores nothing" 0
    (List.length (Obs.Flight.snapshot fl));
  Alcotest.(check (option string)) "dump_now declines when disabled" None
    (Obs.Flight.dump_now fl ~trigger:"manual")

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_flight_trigger_policy () =
  (* no dump directory: triggers count but write nothing *)
  let fl = Obs.Flight.create ~capacity:4 () in
  mk_record fl 0;
  Alcotest.(check (option string)) "no dir: trigger counts only" None
    (Obs.Flight.trigger fl "slow_request");
  ignore (Obs.Flight.trigger fl "slow_request");
  Alcotest.(check (list (pair string int))) "trigger counts accumulate"
    [ ("slow_request", 2) ] (Obs.Flight.triggered fl);
  (* with a directory: first trigger dumps, the second is rate-limited *)
  let dir = temp_dir "clara_flight_test" in
  let fl = Obs.Flight.create ~capacity:4 ~dir ~min_dump_interval_s:3600.0 () in
  mk_record fl 0;
  (match Obs.Flight.trigger fl "deadline" with
  | Some path -> Alcotest.(check bool) "dump file exists" true (Sys.file_exists path)
  | None -> Alcotest.fail "first trigger should dump");
  Alcotest.(check (option string)) "second trigger is rate-limited" None
    (Obs.Flight.trigger fl "deadline");
  (* dump_now ignores the rate limit *)
  match Obs.Flight.dump_now fl ~trigger:"manual" with
  | None -> Alcotest.fail "dump_now should always write"
  | Some path ->
    Alcotest.(check bool) "dump_now file exists" true (Sys.file_exists path);
    (* the dump parses back: header then records *)
    (match Serve.Replay.load path with
    | Error msg -> Alcotest.failf "dump unparseable: %s" msg
    | Ok (h, records) ->
      Alcotest.(check string) "header trigger" "manual" h.Serve.Replay.h_trigger;
      Alcotest.(check int) "header pid" (Unix.getpid ()) h.Serve.Replay.h_pid;
      Alcotest.(check int) "declared = parsed" h.Serve.Replay.h_declared (List.length records);
      Alcotest.(check int) "one record" 1 (List.length records))

(* -- Replay.normalize -- *)

let test_normalize () =
  let fast =
    {|{"id":7,"ok":true,"trace_id":"t-12","nf":"x","cached":true,"path":"fast","report":"r"}|}
  in
  let miss =
    {|{"id":"q","ok":true,"trace_id":"b","nf":"x","cached":false,"path":"slow","report":"r"}|}
  in
  Alcotest.(check string) "volatile fields mask to the same bytes"
    (Serve.Replay.normalize fast) (Serve.Replay.normalize miss);
  let other = {|{"id":7,"ok":true,"trace_id":"t-12","nf":"y","cached":true,"path":"fast"}|} in
  Alcotest.(check bool) "payload differences survive masking" false
    (Serve.Replay.normalize fast = Serve.Replay.normalize other);
  (* escaped quotes inside the trace value do not derail the scan *)
  let tricky = {|{"id":1,"ok":true,"trace_id":"a\"b","cached":false,"path":"slow","k":"v"}|} in
  Alcotest.(check bool) "escape-aware trace mask keeps the tail" true
    (contains {|"k":"v"|} (Serve.Replay.normalize tricky));
  Alcotest.(check bool) "stats is volatile" true
    (Serve.Replay.volatile_request {|{"cmd":"stats"}|});
  Alcotest.(check bool) "op alias is honoured" true
    (Serve.Replay.volatile_request {|{"op":"metrics"}|});
  Alcotest.(check bool) "health (pid, live counters) is volatile" true
    (Serve.Replay.volatile_request {|{"cmd":"health"}|});
  Alcotest.(check bool) "analyze is not volatile" false
    (Serve.Replay.volatile_request {|{"cmd":"analyze","nf":"tcpack"}|})

(* -- server integration: postmortem records + replay round trip -- *)

(* Soak-style mixed traffic: warm repeats (fast path), cold misses, a
   parse error, an unknown command, an unknown NF, a ping, a volatile
   stats probe and a doomed deadline — every reply class the recorder
   classifies. *)
let mixed_traffic =
  [ {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"a1"}|};
    {|{"id":2,"cmd":"analyze","nf":"udpipencap","workload":"small","trace_id":"a2"}|};
    {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"a1"}|};
    {|{"id":3,"cmd":"ping"}|};
    {|this is not json|};
    {|{"id":4,"cmd":"frobnicate"}|};
    {|{"id":5,"cmd":"analyze","nf":"nosuchnf","trace_id":"a5"}|};
    {|{"id":6,"cmd":"stats"}|};
    {|{"id":7,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"a1"}|};
    {|{"id":8,"cmd":"analyze","nf":"anonipaddr","workload":"large","deadline_ms":0.000001,"trace_id":"a8"}|}
  ]

let drive server = List.iter (fun l -> ignore (Serve.Server.handle_request server l)) mixed_traffic

let test_server_records_and_replays () =
  let server =
    Serve.Server.create ~cache_capacity:16 ~flight_capacity:16 (Lazy.force models)
  in
  drive server;
  let fl = Serve.Server.flight server in
  let snap = Obs.Flight.snapshot fl in
  Alcotest.(check int) "every line left a record" (List.length mixed_traffic)
    (List.length snap);
  let outcomes = List.map (fun (r : Obs.Flight.record) -> r.Obs.Flight.outcome) snap in
  let paths = List.map (fun (r : Obs.Flight.record) -> r.Obs.Flight.path) snap in
  Alcotest.(check (list string)) "outcome classes in arrival order"
    [ "ok"; "ok"; "ok"; "ok"; "error"; "error"; "error"; "ok"; "ok"; "deadline" ] outcomes;
  (* lines 3 and 9 are byte-identical repeats of line 1: the fast path *)
  Alcotest.(check (list string)) "fast/slow route per record"
    [ "slow"; "slow"; "fast"; "slow"; "slow"; "slow"; "slow"; "slow"; "fast"; "slow" ] paths;
  Alcotest.(check bool) "deadline overrun counted as a trigger" true
    (List.mem_assoc "deadline" (Obs.Flight.triggered fl));
  (* seq is arrival order regardless of ambient CLARA_JOBS *)
  let seqs = List.map (fun (r : Obs.Flight.record) -> r.Obs.Flight.seq) snap in
  Alcotest.(check (list int)) "seq is dense arrival order"
    (List.init (List.length snap) Fun.id) seqs;
  (* dump -> load -> replay against a fresh server over the same bundle *)
  let dir = temp_dir "clara_flight_replay" in
  let path = Filename.concat dir "dump.jsonl" in
  Obs.Flight.dump_to_file fl ~trigger:"manual" path;
  match Serve.Replay.load path with
  | Error msg -> Alcotest.failf "cannot load dump: %s" msg
  | Ok (_, records) ->
    Alcotest.(check int) "dump holds the full snapshot" (List.length mixed_traffic)
      (List.length records);
    let replay_server = Serve.Replay.server_for (Lazy.force models) in
    let r = Serve.Replay.replay ~server:replay_server records in
    Alcotest.(check int) "total" (List.length mixed_traffic) r.Serve.Replay.total;
    Alcotest.(check int) "stats was skipped as volatile" 1 r.Serve.Replay.skipped_volatile;
    Alcotest.(check int) "the deadline record was skipped as environmental" 1
      r.Serve.Replay.skipped_env;
    Alcotest.(check int) "nothing was truncated" 0 r.Serve.Replay.skipped_truncated;
    Alcotest.(check int) "everything else was compared" 8 r.Serve.Replay.compared;
    (match r.Serve.Replay.diverged with
    | [] -> ()
    | d :: _ ->
      Alcotest.failf "replay diverged at seq %d:\n  expected %s\n  got      %s"
        d.Serve.Replay.d_seq d.Serve.Replay.d_expected d.Serve.Replay.d_got);
    Alcotest.(check int) "matched = compared" r.Serve.Replay.compared r.Serve.Replay.matched;
    (* a tampered reply must be caught *)
    let tampered =
      List.map
        (fun (rec_ : Obs.Flight.record) ->
          if rec_.Obs.Flight.seq = 0 then
            { rec_ with Obs.Flight.reply = rec_.Obs.Flight.reply ^ " " }
          else rec_)
        records
    in
    let replay_server2 = Serve.Replay.server_for (Lazy.force models) in
    let r2 = Serve.Replay.replay ~server:replay_server2 tampered in
    Alcotest.(check int) "tampered reply diverges" 1 (List.length r2.Serve.Replay.diverged);
    (* and the result document parses *)
    match Serve.Jsonl.of_string (Serve.Replay.to_json_string r2) with
    | Ok j ->
      Alcotest.(check (option (float 0.0))) "divergence count in json" (Some 1.0)
        (Serve.Jsonl.num_member "diverged" j)
    | Error msg -> Alcotest.failf "replay json unparseable: %s" msg

(* Dumps written before the key label was retired carry a ["shard"]
   member in every record (and a ["shards"] count in some headers).  They
   still load, and replay with nothing diverged: the loader reads the
   members it knows and ignores the rest. *)
let test_old_dump_replays () =
  let server = Serve.Server.create ~cache_capacity:16 ~flight_capacity:16 (Lazy.force models) in
  drive server;
  let dir = temp_dir "clara_flight_old" in
  let path = Filename.concat dir "dump.jsonl" and old = Filename.concat dir "old.jsonl" in
  Obs.Flight.dump_to_file (Serve.Server.flight server) ~trigger:"manual" path;
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  let insert ~before extra line =
    let m = String.length before in
    let rec at i =
      if i + m > String.length line then Alcotest.failf "no %s in %s" before line
      else if String.sub line i m = before then i
      else at (i + 1)
    in
    let i = at 0 in
    String.sub line 0 i ^ extra ^ String.sub line i (String.length line - i)
  in
  let rewritten =
    List.mapi
      (fun i line ->
        if line = "" then line
        else if i = 0 then insert ~before:{|"capacity":|} {|"shards":8,|} line
        else
          insert ~before:{|"latency_us":|} (Printf.sprintf {|"shard":%d,|} ((i mod 9) - 1)) line)
      lines
  in
  Out_channel.with_open_text old (fun oc -> output_string oc (String.concat "\n" rewritten));
  match Serve.Replay.load old with
  | Error msg -> Alcotest.failf "old dump does not load: %s" msg
  | Ok (_, records) ->
    Alcotest.(check int) "every record loads" (List.length mixed_traffic) (List.length records);
    let r = Serve.Replay.replay ~server:(Serve.Replay.server_for (Lazy.force models)) records in
    Alcotest.(check int) "compared" 8 r.Serve.Replay.compared;
    Alcotest.(check int) "0 diverged" 0 (List.length r.Serve.Replay.diverged)

let test_shed_records () =
  let server =
    Serve.Server.create ~cache_capacity:16 ~max_pending:2 ~flight_capacity:16
      (Lazy.force models)
  in
  let lines = List.init 5 (fun i -> Printf.sprintf {|{"id":%d,"cmd":"ping"}|} i) in
  ignore (Serve.Server.process_batch server lines);
  let snap = Obs.Flight.snapshot (Serve.Server.flight server) in
  let shed =
    List.filter (fun (r : Obs.Flight.record) -> r.Obs.Flight.outcome = "overloaded") snap
  in
  Alcotest.(check int) "shed lines leave overloaded records" 3 (List.length shed);
  Alcotest.(check int) "admitted lines recorded too" 5 (List.length snap)

(* A line's latency is its own: from batch start to when its reply bytes
   exist.  In one batch of [warm hit; cold miss] the hit is answered at
   planning and the miss only after the analysis, so the hit's record
   shows less time; each admitted line is still observed once. *)
let test_per_line_latency () =
  let server =
    Serve.Server.create ~cache_capacity:16 ~flight_capacity:16 (Lazy.force models)
  in
  let hit = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"warm"}|} in
  let miss = {|{"id":2,"cmd":"analyze","nf":"udpipencap","workload":"small","trace_id":"cold"}|} in
  ignore (Serve.Server.process_batch server [ hit ]);
  let histogram = Obs.Metrics.histogram "clara_serve_request_seconds" in
  let before = Obs.Metrics.histogram_count histogram in
  ignore (Serve.Server.process_batch server [ hit; miss ]);
  Alcotest.(check int) "one observation per line" 2
    (Obs.Metrics.histogram_count histogram - before);
  let latency trace =
    match
      List.rev
        (List.filter
           (fun (r : Obs.Flight.record) -> r.Obs.Flight.trace = trace)
           (Obs.Flight.snapshot (Serve.Server.flight server)))
    with
    | r :: _ -> r.Obs.Flight.latency_us
    | [] -> Alcotest.failf "no flight record for %s" trace
  in
  let hit_us = latency "warm" and miss_us = latency "cold" in
  if not (hit_us < miss_us) then
    Alcotest.failf "hit latency %.1f us is not below the miss's %.1f us" hit_us miss_us

(* The outcome class comes from what built the reply, not from its text:
   a client error that merely quotes "injected fault" is an ordinary
   error (no fault trigger, compared on replay), while a real injected
   fault — a [pool.task] fan-out failure (two distinct misses, so the
   batch really fans out) or an armed [jsonl.parse] draw — is still
   classed and triggered as one. *)
let test_fault_class_from_cause () =
  let server =
    Serve.Server.create ~cache_capacity:16 ~flight_capacity:16 (Lazy.force models)
  in
  let lookalikes =
    [ {|{"id":1,"cmd":"analyze","nf":"injected fault"}|}; {|{"id":2,"cmd":"injected fault"}|} ]
  in
  List.iter (fun l -> ignore (Serve.Server.handle_request server l)) lookalikes;
  let fl = Serve.Server.flight server in
  let outcomes () =
    List.map (fun (r : Obs.Flight.record) -> r.Obs.Flight.outcome) (Obs.Flight.snapshot fl)
  in
  Alcotest.(check (list string)) "fault-quoting client errors are errors" [ "error"; "error" ]
    (outcomes ());
  Alcotest.(check (option int)) "no fault trigger" None
    (List.assoc_opt "fault" (Obs.Flight.triggered fl));
  let r =
    Serve.Replay.replay
      ~server:(Serve.Replay.server_for (Lazy.force models))
      (Obs.Flight.snapshot fl)
  in
  Alcotest.(check int) "not skipped as environmental" 0 r.Serve.Replay.skipped_env;
  Alcotest.(check int) "both compared" 2 r.Serve.Replay.compared;
  Alcotest.(check int) "both matched" 2 r.Serve.Replay.matched;
  let with_fault point f =
    Obs.Fault.set ~point ~prob:1.0 ~seed:1;
    Fun.protect ~finally:(fun () -> Obs.Fault.remove point) f
  in
  with_fault "pool.task" (fun () ->
      ignore
        (Serve.Server.process_batch server
           [ {|{"id":3,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|};
             {|{"id":4,"cmd":"analyze","nf":"udpipencap","workload":"small"}|} ]));
  with_fault "jsonl.parse" (fun () ->
      ignore (Serve.Server.handle_request server {|{"id":5,"cmd":"ping"}|}));
  Alcotest.(check (list string)) "injected faults are faults"
    [ "error"; "error"; "fault"; "fault"; "fault" ] (outcomes ());
  Alcotest.(check (option int)) "each fault pulled the trigger" (Some 3)
    (List.assoc_opt "fault" (Obs.Flight.triggered fl))

let test_flight_socket_command () =
  let server =
    Serve.Server.create ~cache_capacity:16 ~flight_capacity:8 (Lazy.force models)
  in
  ignore (Serve.Server.handle_request server {|{"id":1,"cmd":"ping"}|});
  let reply = Serve.Server.handle_request server {|{"id":2,"cmd":"flight"}|} in
  (match Serve.Jsonl.of_string reply with
  | Error msg -> Alcotest.failf "flight reply unparseable: %s" msg
  | Ok j -> (
    match Serve.Jsonl.str_member "flight" j with
    | None -> Alcotest.fail "flight reply misses the snapshot member"
    | Some doc -> (
      match Serve.Jsonl.of_string doc with
      | Error msg -> Alcotest.failf "flight document unparseable: %s" msg
      | Ok fj ->
        Alcotest.(check (option (float 0.0))) "document counts the ping" (Some 1.0)
          (Serve.Jsonl.num_member "recorded" fj))));
  (* the dump member writes a server-side file *)
  let dir = temp_dir "clara_flight_cmd" in
  let path = Filename.concat dir "cmd-dump.jsonl" in
  let reply =
    Serve.Server.handle_request server
      (Printf.sprintf {|{"id":3,"cmd":"flight","dump":"%s"}|} path)
  in
  (match Serve.Jsonl.of_string reply with
  | Ok j ->
    Alcotest.(check (option string)) "dumped path echoed" (Some path)
      (Serve.Jsonl.str_member "dumped" j)
  | Error msg -> Alcotest.failf "flight dump reply unparseable: %s" msg);
  Alcotest.(check bool) "server-side dump exists" true (Sys.file_exists path);
  (* profile command answers even with the profiler off *)
  let reply = Serve.Server.handle_request server {|{"id":4,"cmd":"profile"}|} in
  match Serve.Jsonl.of_string reply with
  | Error msg -> Alcotest.failf "profile reply unparseable: %s" msg
  | Ok j ->
    (match Serve.Jsonl.str_member "profile" j with
    | Some _ -> ()
    | None -> Alcotest.fail "profile reply misses the profile member");
    (match Serve.Jsonl.str_member "folded" j with
    | Some _ -> ()
    | None -> Alcotest.fail "profile reply misses the folded member")

let test_flight_json_accessor () =
  let server =
    Serve.Server.create ~cache_capacity:16 ~flight_capacity:8 (Lazy.force models)
  in
  ignore (Serve.Server.handle_request server {|{"id":1,"cmd":"ping"}|});
  match Serve.Jsonl.of_string (Serve.Server.flight_json server) with
  | Error msg -> Alcotest.failf "flight_json unparseable: %s" msg
  | Ok j -> (
    Alcotest.(check (option string)) "enabled" (Some "true")
      (Option.map Serve.Jsonl.to_string (Serve.Jsonl.member "enabled" j));
    match Serve.Jsonl.member "records" j with
    | Some (Serve.Jsonl.Arr (_ :: _)) -> ()
    | _ -> Alcotest.fail "flight_json has no records")

let () =
  Alcotest.run "flight"
    [ ( "prof",
        [ Alcotest.test_case "span hooks attribute allocation" `Quick test_prof_hooks_and_alloc;
          Alcotest.test_case "ticker samples a live span" `Slow test_prof_ticker_samples ] );
      ( "flight",
        [ Alcotest.test_case "the ring evicts oldest, clips oversized" `Quick test_flight_ring;
          Alcotest.test_case "capacity 0 disables recording" `Quick test_flight_disabled;
          Alcotest.test_case "trigger policy: count, rate-limit, dump" `Quick
            test_flight_trigger_policy ] );
      ( "replay",
        [ Alcotest.test_case "normalize masks exactly the volatile fields" `Quick
            test_normalize;
          Alcotest.test_case "mixed traffic records, dumps and replays clean" `Slow
            test_server_records_and_replays;
          Alcotest.test_case "a dump with shard labels still replays" `Slow test_old_dump_replays;
          Alcotest.test_case "shed lines leave overloaded records" `Slow test_shed_records;
          Alcotest.test_case "fault class comes from the cause, not the text" `Slow
            test_fault_class_from_cause ] );
      ( "server",
        [ Alcotest.test_case "flight/profile socket commands" `Slow test_flight_socket_command;
          Alcotest.test_case "flight_json renders the ring" `Slow test_flight_json_accessor;
          Alcotest.test_case "each line's latency is its own" `Quick test_per_line_latency ]
      ) ]
