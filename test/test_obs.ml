(** Tests for the observability layer: span recording semantics (nesting,
    exception safety, disabled mode, ring eviction), the stable span-tree
    structure of [Pipeline.analyze] under serial and 4-domain pools,
    [Pool.size], the Prometheus-style exposition (parsed back and checked
    for monotonicity and bucket/count consistency), and the validity of
    both JSON exports.

    Like test_parallel, the suite runs twice from dune — once with
    CLARA_JOBS=1 and once with CLARA_JOBS=4 — so every assertion holds in
    both ambient pool modes. *)

let with_jobs n f =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) f

let with_spans f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

let names_of evs = List.map (fun (e : Obs.Span.event) -> e.Obs.Span.name) evs

(* -- span recording -- *)

let test_span_disabled () =
  Obs.Span.reset ();
  Obs.Span.set_enabled false;
  let r = Obs.Span.with_ "off" (fun () -> 41 + 1) in
  Alcotest.(check int) "body still runs" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Span.events ()))

let test_span_nesting () =
  with_spans @@ fun () ->
  Obs.Span.with_ "a" (fun () ->
      Obs.Span.with_ "b" (fun () -> ());
      Obs.Span.with_ "c" (fun () -> ()));
  Obs.Span.with_ "d" (fun () -> ());
  Alcotest.(check (list string)) "start order" [ "a"; "b"; "c"; "d" ]
    (names_of (Obs.Span.events ()));
  match Obs.Span.forest () with
  | [ ta; td ] ->
    Alcotest.(check (list (pair string int)))
      "a's subtree" [ ("a", 0); ("b", 1); ("c", 1) ] (Obs.Span.flatten ta);
    Alcotest.(check (list (pair string int))) "d is its own root" [ ("d", 0) ]
      (Obs.Span.flatten td);
    Alcotest.(check int) "no orphans" 0 (List.length (Obs.Span.orphans ()))
  | f -> Alcotest.failf "expected two roots, got %d" (List.length f)

let test_span_exception_safety () =
  with_spans @@ fun () ->
  (try Obs.Span.with_ "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Obs.Span.with_ "after" (fun () -> ());
  match Obs.Span.events () with
  | [ boom; after ] ->
    Alcotest.(check string) "raising span recorded" "boom" boom.Obs.Span.name;
    Alcotest.(check int) "stack popped: next span is a root" (-1) after.Obs.Span.parent;
    Alcotest.(check int) "next span back at depth 0" 0 after.Obs.Span.depth
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_ring_eviction () =
  with_spans @@ fun () ->
  let extra = 10 in
  for i = 1 to Obs.Span.capacity + extra do
    Obs.Span.with_ (if i <= extra then "old" else "new") (fun () -> ())
  done;
  Alcotest.(check int) "dropped counts evictions" extra (Obs.Span.dropped ());
  let evs = Obs.Span.events () in
  Alcotest.(check int) "ring holds exactly capacity" Obs.Span.capacity (List.length evs);
  Alcotest.(check bool) "oldest events were the ones evicted" false
    (List.exists (fun (e : Obs.Span.event) -> e.Obs.Span.name = "old") evs)

(* -- Pool.size -- *)

let test_pool_size () =
  with_jobs 3 (fun () ->
      Alcotest.(check int) "size = configured jobs outside tasks" 3 (Util.Pool.size ());
      let inside = Util.Pool.parallel_map (fun _ -> Util.Pool.size ()) (Array.init 8 Fun.id) in
      Array.iter
        (Alcotest.(check int) "size = 1 inside a pool task (nested regions run serial)" 1)
        inside);
  with_jobs 1 (fun () -> Alcotest.(check int) "serial pool" 1 (Util.Pool.size ()))

(* -- Pipeline.analyze span tree -- *)

(* Tiny models, spans off during training so only [analyze] is recorded.
   No scaleout model: its [suggest] span would otherwise appear too. *)
let models =
  lazy
    (Obs.Span.set_enabled false;
     Clara.Pipeline.train ~quick:true ~with_scaleout:false ())

let spec = { Workload.default with Workload.n_packets = 200 }

(* The exact preorder (name, relative depth) walk of one analyze call on a
   stateful NF.  This is the structural contract: every pipeline stage
   shows up, properly nested, in deterministic order. *)
let expected_analyze_shape =
  [ ("pipeline.analyze", 0);
    ("prepare", 1);
    ("lower", 2);
    ("vocab.encode", 2);
    ("predict", 1);
    ("algo.detect", 1);
    ("nic.port", 1);
    ("placement.solve", 1);
    ("coalesce.suggest", 1);
    (* coalescing sweeps k = 1..3 cluster counts *)
    ("kmeans.fit", 2);
    ("kmeans.fit", 2);
    ("kmeans.fit", 2) ]

let analyze_shape ~jobs () =
  let m = Lazy.force models in
  let elt = Nf_lang.Corpus.find "Mazu-NAT" in
  with_jobs jobs @@ fun () ->
  with_spans @@ fun () ->
  ignore (Clara.Pipeline.analyze m elt spec);
  Alcotest.(check int) "no orphans" 0 (List.length (Obs.Span.orphans ()));
  match
    List.filter
      (fun t -> t.Obs.Span.span.Obs.Span.name = "pipeline.analyze")
      (Obs.Span.forest ())
  with
  | [ tree ] -> Obs.Span.flatten tree
  | l -> Alcotest.failf "expected one pipeline.analyze root, got %d" (List.length l)

let test_analyze_span_tree () =
  let serial = analyze_shape ~jobs:1 () in
  Alcotest.(check (list (pair string int)))
    "every stage present, nested, in order (jobs=1)" expected_analyze_shape serial;
  let parallel = analyze_shape ~jobs:4 () in
  Alcotest.(check (list (pair string int)))
    "identical structure under a 4-domain pool" expected_analyze_shape parallel

(* -- Prometheus exposition golden test -- *)

(* Parse one sample line back: "name value" or "name{labels} value". *)
let parse_sample line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let name = String.sub line 0 i in
    let v = float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) in
    Option.map (fun v -> (name, v)) v

let samples_of text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.filter_map parse_sample

let test_exposition () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~help:"test counter" "test_obs_requests_total" in
  let lc = Obs.Metrics.counter ~labels:[ ("mode", "x") ] "test_obs_labeled_total" in
  let g = Obs.Metrics.gauge ~help:"test gauge" "test_obs_depth" in
  let h = Obs.Metrics.histogram ~help:"test histogram" "test_obs_latency_seconds" in
  Obs.Metrics.inc c;
  let after_one = Obs.Metrics.counter_value c in
  Obs.Metrics.add c 2;
  Obs.Metrics.addf c 2.5;
  Alcotest.(check bool) "counter is monotone" true (Obs.Metrics.counter_value c > after_one);
  Alcotest.(check (float 1e-9)) "counter accumulates exactly" 5.5 (Obs.Metrics.counter_value c);
  (match Obs.Metrics.add c (-1) with
  | () -> Alcotest.fail "negative counter add must be rejected"
  | exception Invalid_argument _ -> ());
  Obs.Metrics.inc lc;
  Obs.Metrics.set_gauge g 7.0;
  Obs.Metrics.add_gauge g (-3.0);
  let obs_values = [ 0.0003; 0.002; 0.07; 1.0; 100.0 ] in
  List.iter (Obs.Metrics.observe h) obs_values;
  let text = Obs.Metrics.exposition () in
  let samples = samples_of text in
  let value name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "exposition is missing %s" name
  in
  Alcotest.(check (float 1e-9)) "counter sample" 5.5 (value "test_obs_requests_total");
  Alcotest.(check (float 1e-9)) "labeled counter sample" 1.0
    (value {|test_obs_labeled_total{mode="x"}|});
  Alcotest.(check (float 1e-9)) "gauge sample" 4.0 (value "test_obs_depth");
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HELP line present" true (contains "# HELP test_obs_requests_total" text);
  Alcotest.(check bool) "counter TYPE line" true
    (contains "# TYPE test_obs_requests_total counter" text);
  Alcotest.(check bool) "histogram TYPE line" true
    (contains "# TYPE test_obs_latency_seconds histogram" text);
  (* histogram consistency: cumulative buckets are monotone, the +Inf
     bucket equals _count, and _sum matches what was observed *)
  let buckets =
    List.filter (fun (n, _) -> contains "test_obs_latency_seconds_bucket{" n) samples
  in
  Alcotest.(check bool) "buckets emitted" true (List.length buckets > 1);
  let cumulative = List.map snd buckets in
  List.iteri
    (fun i v ->
      if i > 0 then
        Alcotest.(check bool) "cumulative buckets never decrease" true
          (v >= List.nth cumulative (i - 1)))
    cumulative;
  let count = value "test_obs_latency_seconds_count" in
  Alcotest.(check (float 1e-9)) "+Inf bucket equals count"
    count
    (value {|test_obs_latency_seconds_bucket{le="+Inf"}|});
  Alcotest.(check (float 1e-9)) "count matches observations"
    (float_of_int (List.length obs_values))
    count;
  Alcotest.(check (float 1e-6)) "sum matches observations"
    (List.fold_left ( +. ) 0.0 obs_values)
    (value "test_obs_latency_seconds_sum");
  Alcotest.(check int) "histogram_count agrees" (List.length obs_values)
    (Obs.Metrics.histogram_count h);
  (* [time] observes even when the body raises *)
  (try Obs.Metrics.time h (fun () -> failwith "expected") with Failure _ -> ());
  Alcotest.(check int) "time observes on exception" (List.length obs_values + 1)
    (Obs.Metrics.histogram_count h)

(* -- structured logging -- *)

let with_log_capture f =
  let buf = ref [] in
  let saved_level = Obs.Log.level () in
  Obs.Log.set_sink (Obs.Log.Custom (fun line -> buf := line :: !buf));
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_sink Obs.Log.Stderr;
      Obs.Log.set_level saved_level)
    (fun () -> f buf)

let parse_log_line line =
  match Serve.Jsonl.of_string line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "log line %S is not JSON: %s" line msg

let test_log_levels_and_fields () =
  with_log_capture @@ fun buf ->
  Obs.Log.set_level Obs.Log.Warn;
  Obs.Log.info "dropped";
  Alcotest.(check int) "below threshold emits nothing" 0 (List.length !buf);
  Alcotest.(check bool) "enabled reflects threshold" false (Obs.Log.enabled Obs.Log.Info);
  Alcotest.(check bool) "errors stay enabled" true (Obs.Log.enabled Obs.Log.Error);
  Obs.Log.set_level Obs.Log.Debug;
  Obs.Log.warn
    ~fields:
      [ ("socket", Obs.Log.Str "/tmp/x.sock"); ("jobs", Obs.Log.Int 4);
        ("ratio", Obs.Log.Num 0.5); ("accepting", Obs.Log.Bool true);
        ("bad", Obs.Log.Num Float.nan) ]
    {|weird "msg"|};
  match !buf with
  | [ line ] ->
    let j = parse_log_line line in
    Alcotest.(check (option string)) "level" (Some "warn") (Serve.Jsonl.str_member "level" j);
    Alcotest.(check (option string)) "msg survives escaping" (Some {|weird "msg"|})
      (Serve.Jsonl.str_member "msg" j);
    Alcotest.(check (option string)) "string field" (Some "/tmp/x.sock")
      (Serve.Jsonl.str_member "socket" j);
    Alcotest.(check (option (float 0.0))) "int field" (Some 4.0)
      (Serve.Jsonl.num_member "jobs" j);
    Alcotest.(check (option (float 0.0))) "float field" (Some 0.5)
      (Serve.Jsonl.num_member "ratio" j);
    Alcotest.(check bool) "bool field" true
      (Serve.Jsonl.member "accepting" j = Some (Serve.Jsonl.Bool true));
    Alcotest.(check bool) "non-finite field renders null" true
      (Serve.Jsonl.member "bad" j = Some Serve.Jsonl.Null);
    (match Serve.Jsonl.str_member "ts" j with
    | Some ts ->
      Alcotest.(check bool) "ISO-8601 UTC timestamp" true
        (String.length ts = 24 && ts.[String.length ts - 1] = 'Z' && ts.[10] = 'T')
    | None -> Alcotest.fail "ts missing")
  | l -> Alcotest.failf "expected one log line, got %d" (List.length l)

let test_log_trace_correlation () =
  with_log_capture @@ fun buf ->
  Obs.Log.set_level Obs.Log.Info;
  Obs.Log.info "outside";
  (with_spans @@ fun () ->
   Obs.Span.with_trace "t-42" (fun () ->
       Obs.Span.with_ "work" (fun () -> Obs.Log.info "inside")));
  match List.rev !buf with
  | [ outside; inside ] ->
    let o = parse_log_line outside and i = parse_log_line inside in
    Alcotest.(check (option string)) "no trace outside a request" None
      (Serve.Jsonl.str_member "trace" o);
    Alcotest.(check bool) "no span outside a span" true (Serve.Jsonl.member "span" o = None);
    Alcotest.(check (option string)) "trace id attached" (Some "t-42")
      (Serve.Jsonl.str_member "trace" i);
    (match Serve.Jsonl.num_member "span" i with
    | Some id -> Alcotest.(check bool) "span id is a valid index" true (id >= 0.0)
    | None -> Alcotest.fail "span id missing inside an open span")
  | l -> Alcotest.failf "expected two log lines, got %d" (List.length l)

(* -- training-telemetry series -- *)

let test_series_ring () =
  Obs.Series.reset ();
  let s = Obs.Series.create ~capacity:4 "test.series" in
  for i = 1 to 10 do
    Obs.Series.record s ~step:i (float_of_int (i * i))
  done;
  Alcotest.(check int) "dropped counts evictions" 6 (Obs.Series.dropped s);
  Alcotest.(check (list (pair int (float 0.0)))) "ring keeps the last 4 points"
    [ (7, 49.0); (8, 64.0); (9, 81.0); (10, 100.0) ]
    (Obs.Series.points s);
  let s2 = Obs.Series.create ~capacity:4 "test.series" in
  Obs.Series.record s2 ~step:1 1.0;
  Alcotest.(check int) "second fit opens run 2" 2 (Obs.Series.run s2);
  Alcotest.(check (list (pair int (float 0.0)))) "runs never interleave"
    [ (7, 49.0); (8, 64.0); (9, 81.0); (10, 100.0) ]
    (Obs.Series.points s);
  let tiny = Obs.Series.create ~capacity:0 "test.tiny" in
  Obs.Series.record tiny ~step:1 1.0;
  Obs.Series.record tiny ~step:2 2.0;
  Alcotest.(check (list (pair int (float 0.0)))) "capacity clamps to one point"
    [ (2, 2.0) ]
    (Obs.Series.points tiny);
  Obs.Series.reset ();
  Alcotest.(check (list string)) "reset drops every run" [] (Obs.Series.names ())

let test_series_json () =
  Obs.Series.reset ();
  let s = Obs.Series.create ~capacity:8 "test.json" in
  Obs.Series.record s ~step:1 0.5;
  Obs.Series.record s ~step:2 Float.nan;
  (match Serve.Jsonl.of_string (Obs.Series.to_json_string ()) with
  | Error msg -> Alcotest.failf "series dump is not valid JSON: %s" msg
  | Ok j -> (
    match Serve.Jsonl.member "series" j with
    | Some (Serve.Jsonl.Arr [ run ]) -> (
      Alcotest.(check (option string)) "name" (Some "test.json")
        (Serve.Jsonl.str_member "name" run);
      Alcotest.(check (option (float 0.0))) "run number" (Some 1.0)
        (Serve.Jsonl.num_member "run" run);
      match Serve.Jsonl.member "points" run with
      | Some (Serve.Jsonl.Arr [ p1; p2 ]) ->
        Alcotest.(check (option (float 0.0))) "step kept" (Some 1.0)
          (Serve.Jsonl.num_member "step" p1);
        Alcotest.(check (option (float 0.0))) "value kept" (Some 0.5)
          (Serve.Jsonl.num_member "value" p1);
        Alcotest.(check bool) "non-finite value renders null" true
          (Serve.Jsonl.member "value" p2 = Some Serve.Jsonl.Null)
      | _ -> Alcotest.fail "points array missing")
    | _ -> Alcotest.fail "series array missing"));
  Obs.Series.reset ()

(* Every fitted model family publishes a learning curve: run each fit
   small and direct, then check every buffered run has strictly
   increasing step indices and finite losses (ISSUE acceptance). *)
let test_training_series () =
  Obs.Series.reset ();
  let xs = Array.init 20 (fun i -> [| float_of_int i; float_of_int (i mod 3) |]) in
  let ys = Array.map (fun x -> (2.0 *. x.(0)) +. x.(1)) xs in
  let labels = Array.map (fun x -> if x.(0) > 10.0 then 1.0 else 0.0) xs in
  ignore (Mlkit.Tree.gbdt_fit ~n_stages:5 xs ys);
  ignore (Mlkit.Tree.gbdt_fit_binary ~n_stages:5 xs labels);
  ignore (Mlkit.Simple.svm_fit ~epochs:3 xs labels);
  ignore (Mlkit.Simple.kmeans_fit ~iters:3 ~k:2 xs);
  ignore
    (Mlkit.Rank.fit ~n_stages:4
       [ { Mlkit.Rank.features = [| [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |];
           relevance = [| 2.0; 1.0; 0.0 |] } ]);
  let lstm = Mlkit.Lstm.create ~hidden:4 ~vocab:5 7 in
  Mlkit.Lstm.fit ~epochs:2 lstm [| ([| 1; 2; 3 |], [| 4.0 |]); ([| 0; 4 |], [| 1.0 |]) |];
  let expected =
    [ "gbdt.fit"; "gbdt.fit_binary"; "kmeans.fit"; "lstm.fit"; "rank.fit"; "svm.fit" ]
  in
  let names = Obs.Series.names () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded a run") true (List.mem name names))
    expected;
  (match Serve.Jsonl.of_string (Obs.Series.to_json_string ()) with
  | Error msg -> Alcotest.failf "telemetry dump is not valid JSON: %s" msg
  | Ok j -> (
    match Serve.Jsonl.member "series" j with
    | Some (Serve.Jsonl.Arr runs) ->
      Alcotest.(check bool) "one run per fit" true (List.length runs >= List.length expected);
      List.iter
        (fun run ->
          let name = Option.value ~default:"?" (Serve.Jsonl.str_member "name" run) in
          match Serve.Jsonl.member "points" run with
          | Some (Serve.Jsonl.Arr points) ->
            Alcotest.(check bool) (name ^ " has points") true (points <> []);
            let last = ref min_int in
            List.iter
              (fun p ->
                (match Serve.Jsonl.num_member "step" p with
                | Some s ->
                  let s = int_of_float s in
                  Alcotest.(check bool) (name ^ " steps strictly increase") true (s > !last);
                  last := s
                | None -> Alcotest.failf "%s point without a step" name);
                match Serve.Jsonl.member "value" p with
                | Some (Serve.Jsonl.Num v) ->
                  Alcotest.(check bool) (name ^ " loss is finite") true (Float.is_finite v)
                | _ -> Alcotest.failf "%s run has a non-finite loss" name)
              points
          | _ -> Alcotest.failf "%s run without points" name)
        runs
    | _ -> Alcotest.fail "series array missing"));
  Obs.Series.reset ()

(* -- runtime gauges -- *)

let test_runtime_gauges () =
  Obs.Runtime.sample ();
  let samples = samples_of (Obs.Metrics.exposition ()) in
  let value name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "exposition is missing %s" name
  in
  Alcotest.(check bool) "heap words positive" true (value "clara_runtime_gc_heap_words" > 0.0);
  Alcotest.(check bool) "minor words positive" true
    (value "clara_runtime_gc_minor_words" > 0.0);
  Alcotest.(check bool) "uptime nonnegative" true (value "clara_runtime_uptime_seconds" >= 0.0);
  Alcotest.(check bool) "recommended domains >= 1" true
    (value "clara_runtime_recommended_domains" >= 1.0);
  Alcotest.(check bool) "sampler initially stopped" false (Obs.Runtime.running ());
  Obs.Runtime.start ~period_s:0.05 ();
  Alcotest.(check bool) "sampler running" true (Obs.Runtime.running ());
  Obs.Runtime.start ();
  Obs.Runtime.stop ();
  Alcotest.(check bool) "sampler stopped" false (Obs.Runtime.running ());
  Obs.Runtime.stop ()

(* -- request-scoped tracing through the insight server -- *)

let parse_reply line =
  match Serve.Jsonl.of_string line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg

let rec flatten_span_json depth j =
  let name = Option.value ~default:"?" (Serve.Jsonl.str_member "name" j) in
  let children =
    match Serve.Jsonl.member "children" j with Some (Serve.Jsonl.Arr cs) -> cs | _ -> []
  in
  (name, depth) :: List.concat_map (flatten_span_json (depth + 1)) children

(* One request's span subtree via the server's [trace] command: echo of a
   client-supplied trace_id, the subtree matching a direct
   [Pipeline.analyze] of the same NF/workload, and exclusion of every
   other request's spans. *)
let server_trace_shape ~jobs ~trace () =
  let m = Lazy.force models in
  with_jobs jobs @@ fun () ->
  with_spans @@ fun () ->
  let s = Serve.Server.create ~cache_capacity:8 m in
  let req =
    Printf.sprintf
      {|{"id":1,"cmd":"analyze","nf":"Mazu-NAT","workload":"mixed","trace_id":"%s"}|} trace
  in
  let r = parse_reply (Serve.Server.handle_request s req) in
  Alcotest.(check bool) "traced analyze ok" true
    (Serve.Jsonl.member "ok" r = Some (Serve.Jsonl.Bool true));
  Alcotest.(check (option string)) "reply echoes the client trace id" (Some trace)
    (Serve.Jsonl.str_member "trace_id" r);
  (* a second request under a different trace must stay out of the subtree *)
  let other =
    parse_reply
      (Serve.Server.handle_request s
         {|{"id":2,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"other"}|})
  in
  Alcotest.(check (option string)) "other request keeps its own id" (Some "other")
    (Serve.Jsonl.str_member "trace_id" other);
  let tr =
    parse_reply
      (Serve.Server.handle_request s
         (Printf.sprintf {|{"id":3,"cmd":"trace","trace_id":"%s"}|} trace))
  in
  Alcotest.(check bool) "trace reply ok" true
    (Serve.Jsonl.member "ok" tr = Some (Serve.Jsonl.Bool true));
  Alcotest.(check (option string)) "trace reply names the queried id" (Some trace)
    (Serve.Jsonl.str_member "queried" tr);
  Alcotest.(check bool) "trace reply reports tracing on" true
    (Serve.Jsonl.member "tracing" tr = Some (Serve.Jsonl.Bool true));
  match Serve.Jsonl.member "spans" tr with
  | Some (Serve.Jsonl.Arr roots) -> List.concat_map (flatten_span_json 0) roots
  | _ -> Alcotest.fail "trace reply carries a spans array"

let test_request_trace () =
  let m = Lazy.force models in
  (* reference: the span subtree of one direct analyze, trace-filtered *)
  let reference =
    with_spans @@ fun () ->
    Obs.Span.with_trace "ref" (fun () ->
        ignore
          (Clara.Pipeline.analyze m (Nf_lang.Corpus.find "Mazu-NAT") Serve.Server.mixed_spec));
    match Obs.Span.forest ~trace:"ref" () with
    | [ tree ] -> Obs.Span.flatten tree
    | l -> Alcotest.failf "expected one traced root, got %d" (List.length l)
  in
  let serial = server_trace_shape ~jobs:1 ~trace:"abc" () in
  Alcotest.(check (list (pair string int)))
    "server trace = direct analyze subtree (jobs=1)" reference serial;
  let parallel = server_trace_shape ~jobs:4 ~trace:"abc" () in
  Alcotest.(check (list (pair string int)))
    "identical subtree under a 4-domain pool" reference parallel

(* -- spans across a suspended miss --

   On the serving loop a miss runs as cooperative slices between hits.
   Each slice swaps the span context in and out, so a hit answered while
   the miss is suspended records under its own trace only, and the
   miss's trace tree is exactly a synchronous run's.  Three slow cold
   analyses from another connection are queued first, so the hit lands
   while the miss still waits. *)

let connect path =
  let rec go n =
    match Serve.Lineio.connect ~socket_path:path with
    | Ok fd -> fd
    | Error e when n = 0 -> Alcotest.failf "connect %s: %s" path e
    | Error _ ->
      Unix.sleepf 0.01;
      go (n - 1)
  in
  let fd = go 300 in
  (fd, Unix.in_channel_of_descr fd)

let send (fd, _) lines =
  Serve.Lineio.write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let recv (_, ic) = parse_reply (input_line ic)
let quiet (fd, _) = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> true | _ -> false

let analyze_traced ?(id = 1) nf workload trace =
  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s","trace_id":"%s"}|} id nf
    workload trace

let test_trace_across_suspension () =
  let m = Lazy.force models in
  with_spans @@ fun () ->
  let shape trace = List.map Obs.Span.flatten (Obs.Span.forest ~trace ()) in
  let cold run =
    [ analyze_traced "wepdecap" "small" (run ^ "cold-1");
      analyze_traced "wepdecap" "large" (run ^ "cold-2");
      analyze_traced "cmsketch" "small" (run ^ "cold-3") ]
  in
  let misses = [ "cold-1"; "cold-2"; "cold-3"; "miss" ] in
  let direct = Serve.Server.create ~cache_capacity:8 m in
  ignore (Serve.Server.process_batch direct [ analyze_traced "tcpack" "mixed" "s-warm" ]);
  ignore
    (Serve.Server.process_batch direct
       (cold "s-" @ [ analyze_traced "Mazu-NAT" "small" "s-miss"; analyze_traced "tcpack" "mixed" "s-hit" ]));
  List.iter
    (fun k ->
      Alcotest.(check bool) "a synchronous miss has its pipeline tree" true (shape ("s-" ^ k) <> []))
    misses;
  let s = Serve.Server.create ~cache_capacity:8 m in
  let path = Filename.temp_file "clara_obs_loop" ".sock" in
  Sys.remove path;
  let loop = Domain.spawn (fun () -> Serve.Server.run s ~socket_path:path) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_drain s;
      Domain.join loop)
  @@ fun () ->
  let loader = connect path and a = connect path and b = connect path in
  send b [ analyze_traced "tcpack" "mixed" "l-warm" ];
  ignore (recv b);
  send loader (cold "l-");
  (* let the first cold job start: the hit's round then runs between
     its slices *)
  Unix.sleepf 0.003;
  send a [ analyze_traced "Mazu-NAT" "small" "l-miss" ];
  send b [ analyze_traced "tcpack" "mixed" "l-hit" ];
  let hit = recv b in
  Alcotest.(check bool) "the hit is answered while the misses wait" true (quiet a);
  Alcotest.(check (option string)) "hit keeps its trace" (Some "l-hit")
    (Serve.Jsonl.str_member "trace_id" hit);
  ignore (recv a);
  for _ = 1 to 3 do
    ignore (recv loader)
  done;
  Alcotest.(check (list (list (pair string int)))) "the hit carries only its own spans"
    (shape "s-hit") (shape "l-hit");
  List.iter
    (fun k ->
      Alcotest.(check (list (list (pair string int))))
        (k ^ ": the tree is the synchronous run's") (shape ("s-" ^ k)) (shape ("l-" ^ k)))
    misses;
  Alcotest.(check int) "no orphans" 0 (List.length (Obs.Span.orphans ()))

(* -- JSON exports parse -- *)

let test_json_exports () =
  (with_spans @@ fun () ->
   Obs.Span.with_ "outer" (fun () -> Obs.Span.with_ {|in "ner"|} (fun () -> ()));
   let txt = Obs.Span.to_chrome_json () in
   match Serve.Jsonl.of_string txt with
   | Error msg -> Alcotest.failf "chrome trace is not valid JSON: %s" msg
   | Ok j -> (
     match Serve.Jsonl.member "traceEvents" j with
     | Some (Serve.Jsonl.Arr evs) ->
       Alcotest.(check int) "one trace event per span" 2 (List.length evs);
       List.iter
         (fun e ->
           Alcotest.(check (option string)) "complete events" (Some "X")
             (Serve.Jsonl.str_member "ph" e))
         evs
     | _ -> Alcotest.fail "traceEvents array missing"));
  match Serve.Jsonl.of_string (Obs.Metrics.to_json_string ()) with
  | Error msg -> Alcotest.failf "metrics dump is not valid JSON: %s" msg
  | Ok j -> (
    match Serve.Jsonl.member "metrics" j with
    | Some (Serve.Jsonl.Arr _) -> ()
    | _ -> Alcotest.fail "metrics array missing")

let () =
  Alcotest.run "obs"
    [ ( "span",
        [ Alcotest.test_case "disabled records nothing" `Quick test_span_disabled;
          Alcotest.test_case "nesting and forest" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "ring eviction" `Quick test_span_ring_eviction ] );
      ("pool", [ Alcotest.test_case "Pool.size" `Quick test_pool_size ]);
      ( "log",
        [ Alcotest.test_case "levels, fields and escaping" `Quick test_log_levels_and_fields;
          Alcotest.test_case "trace/span correlation" `Quick test_log_trace_correlation ] );
      ( "series",
        [ Alcotest.test_case "bounded ring and runs" `Quick test_series_ring;
          Alcotest.test_case "JSON export" `Quick test_series_json;
          Alcotest.test_case "every fit records a learning curve" `Slow test_training_series ] );
      ("runtime", [ Alcotest.test_case "GC gauges and sampler" `Quick test_runtime_gauges ]);
      ( "pipeline",
        [ Alcotest.test_case "analyze span tree is stable" `Slow test_analyze_span_tree;
          Alcotest.test_case "request-scoped trace subtree" `Slow test_request_trace;
          Alcotest.test_case "spans across a suspended miss" `Slow test_trace_across_suspension ] );
      ( "metrics",
        [ Alcotest.test_case "exposition golden" `Quick test_exposition;
          Alcotest.test_case "JSON exports parse" `Quick test_json_exports ] ) ]
