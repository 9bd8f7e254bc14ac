(** Tests for the prediction-quality telemetry stack: the mergeable
    quantile sketch (accuracy bounds, exact merge associativity), the
    drift detectors (quiet streams stay quiet, mean shifts fire "ph",
    variance blowups fire "qdist"), SLO burn rates under an explicit
    clock, deterministic shadow sampling (CLARA_JOBS=1 and =4 produce
    byte-identical quality documents), detection of a perturbed nicsim
    profile within a bounded sample budget, and agreement between the
    HTTP [/quality] endpoint and the socket [quality] command. *)

let () = Obs.Log.set_sink Obs.Log.Off

let with_jobs n f =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) f

(* -- Obs.Sketch -- *)

(* Same rank convention as the sketch: ceil(q*n), clamped to [1,n]. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  sorted.(rank - 1)

let test_sketch_accuracy () =
  let t = Obs.Sketch.create () in
  let rng = Util.Rng.create 42 in
  let values =
    Array.init 2000 (fun _ ->
        (* signed log-uniform over six decades: exercises both bucket
           arrays and a wide dynamic range *)
        let mag = 10.0 ** ((Util.Rng.float rng *. 6.0) -. 3.0) in
        if Util.Rng.float rng < 0.3 then -.mag else mag)
  in
  Array.iter (Obs.Sketch.add t) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Alcotest.(check int) "count" (Array.length values) (Obs.Sketch.count t);
  Alcotest.(check bool) "min exact" true
    (Float.equal sorted.(0) (Obs.Sketch.min_value t));
  Alcotest.(check bool) "max exact" true
    (Float.equal sorted.(Array.length sorted - 1) (Obs.Sketch.max_value t));
  List.iter
    (fun q ->
      let est = Obs.Sketch.quantile t q in
      let exact = exact_quantile sorted q in
      let tol = (2.0 *. Obs.Sketch.alpha t *. Float.abs exact) +. 1e-12 in
      if Float.abs (est -. exact) > tol then
        Alcotest.failf "q=%g: estimate %g vs exact %g (tol %g)" q est exact tol)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ];
  (* non-finite inputs are ignored, tiny magnitudes land in the zero bucket *)
  let z = Obs.Sketch.create () in
  Obs.Sketch.add z Float.nan;
  Obs.Sketch.add z Float.infinity;
  Obs.Sketch.add z 1e-9;
  Obs.Sketch.add z 0.0;
  Alcotest.(check int) "non-finite ignored, tiny collapse to zero" 2 (Obs.Sketch.count z);
  Alcotest.(check bool) "zero-bucket quantile" true
    (Float.equal 0.0 (Obs.Sketch.quantile z 0.5));
  (* empty sketch quantiles are nan and serialize as null *)
  let e = Obs.Sketch.create () in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Obs.Sketch.quantile e 0.5))

let test_sketch_merge_associative () =
  (* integer-valued samples keep every aggregate exact in float, so the
     merged documents must be byte-identical however the merge tree is
     shaped -- the property a merged document's determinism rides on *)
  let fill lo hi =
    let s = Obs.Sketch.create () in
    for v = lo to hi do
      Obs.Sketch.add s (float_of_int v)
    done;
    s
  in
  let a = fill 1 40 and b = fill (-20) (-1) and c = fill 41 130 in
  Obs.Sketch.add c 0.0;
  let all = Obs.Sketch.create () in
  for v = 1 to 40 do Obs.Sketch.add all (float_of_int v) done;
  for v = -20 to -1 do Obs.Sketch.add all (float_of_int v) done;
  for v = 41 to 130 do Obs.Sketch.add all (float_of_int v) done;
  Obs.Sketch.add all 0.0;
  let j s = Obs.Sketch.to_json_string s in
  let left = Obs.Sketch.merge (Obs.Sketch.merge a b) c in
  let right = Obs.Sketch.merge a (Obs.Sketch.merge b c) in
  Alcotest.(check string) "merge associative" (j left) (j right);
  Alcotest.(check string) "merge equals streaming" (j all) (j left);
  Alcotest.(check string) "merge commutative"
    (j (Obs.Sketch.merge a b)) (j (Obs.Sketch.merge b a));
  (* merge must not mutate its inputs *)
  Alcotest.(check int) "left input untouched" 40 (Obs.Sketch.count a);
  Alcotest.(check int) "right input untouched" 20 (Obs.Sketch.count b);
  (* mismatched geometry is a programming error, not a silent corruption *)
  match Obs.Sketch.merge a (Obs.Sketch.create ~alpha:0.02 ()) with
  | _ -> Alcotest.fail "geometry mismatch must be rejected"
  | exception Invalid_argument _ -> ()

(* -- Obs.Drift -- *)

let test_drift_quiet () =
  let d = Obs.Drift.create ~name:"quiet" () in
  for i = 1 to 200 do
    Obs.Drift.observe d (0.1 +. (if i mod 2 = 0 then 0.001 else -0.001))
  done;
  Alcotest.(check bool) "steady stream stays quiet" false (Obs.Drift.active d);
  Alcotest.(check int) "samples counted" 200 (Obs.Drift.samples d);
  Alcotest.(check bool) "no detector" true (Obs.Drift.detector d = None)

let test_drift_mean_shift_fires_ph () =
  let d = Obs.Drift.create ~name:"shift" () in
  for _ = 1 to 40 do Obs.Drift.observe d 0.1 done;
  Alcotest.(check bool) "quiet before the shift" false (Obs.Drift.active d);
  let budget = ref 0 in
  while (not (Obs.Drift.active d)) && !budget < 10 do
    incr budget;
    Obs.Drift.observe d 0.5
  done;
  Alcotest.(check bool) "mean shift detected" true (Obs.Drift.active d);
  Alcotest.(check (option string)) "page-hinkley fired" (Some "ph") (Obs.Drift.detector d);
  Alcotest.(check bool) "fired_at recorded" true (Obs.Drift.fired_at d > 40);
  (* latched: more quiet samples do not clear it *)
  for _ = 1 to 20 do Obs.Drift.observe d 0.5 done;
  Alcotest.(check bool) "latched until reset" true (Obs.Drift.active d);
  Obs.Drift.reset d;
  Alcotest.(check bool) "reset clears" false (Obs.Drift.active d);
  Alcotest.(check int) "reset clears samples" 0 (Obs.Drift.samples d)

let test_drift_variance_fires_qdist () =
  (* symmetric alternation keeps the running mean near zero, so the
     Page-Hinkley cumulative gap stays under lambda; only the two-window
     quantile distance sees the amplitude blowup *)
  let d = Obs.Drift.create ~name:"variance" () in
  for i = 1 to 64 do
    Obs.Drift.observe d (if i mod 2 = 0 then 0.01 else -0.01)
  done;
  Alcotest.(check bool) "quiet at small amplitude" false (Obs.Drift.active d);
  let budget = ref 0 in
  while (not (Obs.Drift.active d)) && !budget < 64 do
    incr budget;
    Obs.Drift.observe d (if !budget mod 2 = 0 then 0.3 else -0.3)
  done;
  Alcotest.(check bool) "variance blowup detected" true (Obs.Drift.active d);
  Alcotest.(check (option string)) "quantile-distance fired" (Some "qdist")
    (Obs.Drift.detector d)

let test_drift_json () =
  let d = Obs.Drift.create ~name:"json" () in
  Obs.Drift.observe d 0.25;
  match Serve.Jsonl.of_string (Obs.Drift.to_json_string d) with
  | Error msg -> Alcotest.failf "drift json unparseable: %s" msg
  | Ok v ->
    Alcotest.(check (option string)) "name" (Some "json") (Serve.Jsonl.str_member "name" v);
    Alcotest.(check bool) "samples" true
      (Serve.Jsonl.member "samples" v = Some (Serve.Jsonl.Num 1.0));
    Alcotest.(check bool) "inactive detector is null" true
      (Serve.Jsonl.member "detector" v = Some Serve.Jsonl.Null)

(* -- Obs.Slo -- *)

let test_slo_burn_rates () =
  let t0 = 1_000_000.0 in
  let slo = Obs.Slo.create ~name:"avail" ~objective:0.99 Obs.Slo.Availability in
  for _ = 1 to 20 do
    Obs.Slo.record ~now:t0 slo ~good:false
  done;
  let burns = Obs.Slo.burn_rates ~now:t0 slo in
  Alcotest.(check (list string)) "default windows" [ "fast"; "slow" ] (List.map fst burns);
  List.iter
    (fun (w, b) ->
      if Float.abs (b -. 100.0) > 1e-6 then Alcotest.failf "%s burn %g, wanted 100" w b)
    burns;
  Alcotest.(check bool) "both windows over threshold -> firing" true
    (Obs.Slo.firing ~now:t0 slo);
  (* 400s later the 300s fast window has aged out; firing needs ALL windows *)
  let t1 = t0 +. 400.0 in
  Alcotest.(check bool) "fast window aged out -> not firing" false
    (Obs.Slo.firing ~now:t1 slo);
  (match List.assoc_opt "slow" (Obs.Slo.burn_rates ~now:t1 slo) with
  | Some b when Float.abs (b -. 100.0) < 1e-6 -> ()
  | Some b -> Alcotest.failf "slow burn %g after 400s, wanted 100" b
  | None -> Alcotest.fail "slow window missing");
  (* fixed clock -> stable serialization *)
  Alcotest.(check string) "json stable under a fixed clock"
    (Obs.Slo.to_json_string ~now:t1 slo)
    (Obs.Slo.to_json_string ~now:t1 slo)

let test_slo_latency_kind () =
  let t0 = 2_000_000.0 in
  let slo = Obs.Slo.create ~name:"lat" ~objective:0.9 (Obs.Slo.Latency 0.1) in
  for _ = 1 to 9 do
    Obs.Slo.record_latency ~now:t0 slo 0.05
  done;
  Obs.Slo.record_latency ~now:t0 slo 0.2;
  (* 1 bad in 10 against a 0.9 objective: bad_ratio 0.1, budget 0.1 -> burn 1 *)
  List.iter
    (fun (w, b) ->
      if Float.abs (b -. 1.0) > 1e-6 then Alcotest.failf "%s burn %g, wanted 1" w b)
    (Obs.Slo.burn_rates ~now:t0 slo);
  Alcotest.(check bool) "burn 1 is under both thresholds" false (Obs.Slo.firing ~now:t0 slo);
  let avail = Obs.Slo.create ~name:"a" ~objective:0.99 Obs.Slo.Availability in
  match Obs.Slo.record_latency ~now:t0 avail 0.1 with
  | () -> Alcotest.fail "record_latency on an availability SLO must be rejected"
  | exception Invalid_argument _ -> ()

(* -- CLARA_LATENCY_BUCKETS -- *)

let test_latency_buckets_env () =
  let set v = Unix.putenv "CLARA_LATENCY_BUCKETS" v in
  Fun.protect ~finally:(fun () -> set "") @@ fun () ->
  set "";
  let defaults = Array.to_list (Obs.Metrics.latency_buckets ()) in
  Alcotest.(check bool) "defaults non-empty" true (defaults <> []);
  set "0.001,0.01,0.1";
  Alcotest.(check (list (float 0.0))) "explicit bounds parsed" [ 0.001; 0.01; 0.1 ]
    (Array.to_list (Obs.Metrics.latency_buckets ()));
  set " 1e-6 , 1e-3 ";
  Alcotest.(check (list (float 0.0))) "whitespace tolerated" [ 1e-6; 1e-3 ]
    (Array.to_list (Obs.Metrics.latency_buckets ()));
  set "abc";
  Alcotest.(check (list (float 0.0))) "garbage falls back" defaults
    (Array.to_list (Obs.Metrics.latency_buckets ()));
  set "0.1,0.05";
  Alcotest.(check (list (float 0.0))) "non-increasing falls back" defaults
    (Array.to_list (Obs.Metrics.latency_buckets ()))

(* -- served shadow evaluation -- *)

let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let analyze_line ~id nf = Printf.sprintf {|{"id":%S,"cmd":"analyze","nf":%S}|} id nf

(* The deterministic members of a quality document: everything except the
   wall-clock fast-path latency sketch and the SLO sections.  A fixed
   [~now] far from the wall clock zeroes the SLO windows, but the latency
   sketch really does hold measured timings, so comparisons go member by
   member. *)
let stable_members json =
  match Serve.Jsonl.of_string json with
  | Error msg -> Alcotest.failf "quality json unparseable: %s" msg
  | Ok v ->
    List.map
      (fun k -> (k, Option.map Serve.Jsonl.to_string (Serve.Jsonl.member k v)))
      [ "enabled"; "rate"; "sampled"; "evaluated"; "eval_errors"; "shadow"; "drift" ]

let test_shadow_deterministic_across_jobs () =
  let script server =
    let nfs = [ "tcpack"; "udpipencap"; "anonipaddr" ] in
    let batch tag =
      List.concat_map
        (fun nf -> List.init 8 (fun i -> analyze_line ~id:(Printf.sprintf "%s-%s-%d" tag nf i) nf))
        nfs
    in
    (* batch 1 misses through the slow path; 2 and 3 hit the fast path *)
    List.iter
      (fun tag -> ignore (Serve.Server.process_batch server (batch tag)))
      [ "b1"; "b2"; "b3" ]
  in
  let run jobs =
    with_jobs jobs @@ fun () ->
    let s =
      Serve.Server.create ~cache_capacity:16 ~shards:4 ~shadow_rate:0.5 ~shadow_seed:42
        (Lazy.force models)
    in
    script s;
    stable_members (Serve.Server.quality_json ~now:1000.0 s)
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check (list (pair string (option string))))
    "quality document identical under CLARA_JOBS=1 and =4" serial parallel;
  (* and it actually shadowed something: rate 0.5 over 72 requests *)
  (match List.assoc "sampled" serial with
  | Some n ->
    let n = float_of_string n in
    if not (n > 0.0 && n < 72.0) then
      Alcotest.failf "sampling looks degenerate: %g of 72 requests" n
  | None -> Alcotest.fail "sampled member missing");
  match List.assoc "evaluated" serial with
  | Some n when float_of_string n > 0.0 -> ()
  | _ -> Alcotest.fail "nothing was shadow-evaluated"

let test_perturbation_detected () =
  (* webtcp's memory prediction is a direct count that matches the
     unperturbed simulator exactly, so the 1.4x memory-profile shift
     steps its error stream by a known ~0.29 *)
  Nicsim.Perturb.reset ();
  Fun.protect ~finally:Nicsim.Perturb.reset @@ fun () ->
  let s = Serve.Server.create ~shadow_rate:1.0 (Lazy.force models) in
  let q = Serve.Server.quality s in
  let send i = ignore (Serve.Server.handle_request s (analyze_line ~id:(string_of_int i) "webtcp")) in
  for i = 1 to 24 do send i done;
  Serve.Server.drain_quality s;
  Alcotest.(check int) "every request shadowed" 24 (Serve.Quality.evaluated q);
  Alcotest.(check bool) "memory detector quiet before the shift" false
    (Serve.Quality.drift_active q "webtcp/memory");
  Alcotest.(check bool) "compute detector quiet before the shift" false
    (Serve.Quality.drift_active q "webtcp");
  Nicsim.Perturb.set ~memory_scale:1.4 ();
  let budget = ref 0 in
  while (not (Serve.Quality.drift_active q "webtcp/memory")) && !budget < 64 do
    incr budget;
    send (24 + !budget)
  done;
  Alcotest.(check bool) "perturbation detected" true
    (Serve.Quality.drift_active q "webtcp/memory");
  Alcotest.(check bool) "within the sample budget" true (!budget < 64);
  Alcotest.(check bool) "unperturbed compute stream stays quiet" false
    (Serve.Quality.drift_active q "webtcp")

let test_unperturbed_stays_quiet () =
  Nicsim.Perturb.reset ();
  let s = Serve.Server.create ~shadow_rate:1.0 (Lazy.force models) in
  let q = Serve.Server.quality s in
  for i = 1 to 80 do
    ignore (Serve.Server.handle_request s (analyze_line ~id:(string_of_int i) "webtcp"))
  done;
  Serve.Server.drain_quality s;
  Alcotest.(check int) "all evaluated" 80 (Serve.Quality.evaluated q);
  Alcotest.(check bool) "compute detector quiet" false (Serve.Quality.drift_active q "webtcp");
  Alcotest.(check bool) "memory detector quiet" false
    (Serve.Quality.drift_active q "webtcp/memory")

(* -- surfaces agree: HTTP /quality vs socket `quality` -- *)

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let raw = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
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
      let resp = Buffer.contents buf in
      let len = String.length resp in
      let rec scan i =
        if i + 3 >= len then Alcotest.failf "no header terminator in %S" resp
        else if
          resp.[i] = '\r' && resp.[i + 1] = '\n' && resp.[i + 2] = '\r' && resp.[i + 3] = '\n'
        then i
        else scan (i + 1)
      in
      let term = scan 0 in
      String.sub resp (term + 4) (len - term - 4))

let test_http_matches_socket () =
  Nicsim.Perturb.reset ();
  let s = Serve.Server.create ~shadow_rate:1.0 ~shadow_seed:7 (Lazy.force models) in
  List.iteri
    (fun i nf -> ignore (Serve.Server.handle_request s (analyze_line ~id:(string_of_int i) nf)))
    [ "tcpack"; "tcpack"; "udpipencap"; "udpipencap"; "tcpack"; "udpipencap" ];
  let h = Serve.Http.create ~quality:(fun () -> Serve.Server.quality_json s) ~port:0 () in
  let d = Domain.spawn (fun () -> Serve.Http.run h) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop h;
      Domain.join d)
    (fun () ->
      (* HTTP scrape first: the socket command's own SLO bookkeeping lands
         after its reply renders, so in this order both surfaces render
         from identical state *)
      let body = http_get ~port:(Serve.Http.port h) "/quality" in
      let reply = Serve.Server.handle_request s {|{"id":99,"cmd":"quality"}|} in
      let socket_doc =
        match Serve.Jsonl.of_string reply with
        | Error msg -> Alcotest.failf "quality reply unparseable: %s" msg
        | Ok v -> (
          match Serve.Jsonl.str_member "quality" v with
          | Some doc -> doc
          | None -> Alcotest.fail "quality reply carries no document")
      in
      Alcotest.(check string) "HTTP body equals the socket document" socket_doc body;
      match Serve.Jsonl.of_string body with
      | Error msg -> Alcotest.failf "quality document is not JSON: %s" msg
      | Ok v ->
        Alcotest.(check bool) "document reports enabled" true
          (Serve.Jsonl.member "enabled" v = Some (Serve.Jsonl.Bool true)))

let () =
  Alcotest.run "quality"
    [ ( "sketch",
        [ Alcotest.test_case "quantile accuracy" `Quick test_sketch_accuracy;
          Alcotest.test_case "merge associativity" `Quick test_sketch_merge_associative ] );
      ( "drift",
        [ Alcotest.test_case "steady stream quiet" `Quick test_drift_quiet;
          Alcotest.test_case "mean shift fires ph" `Quick test_drift_mean_shift_fires_ph;
          Alcotest.test_case "variance fires qdist" `Quick test_drift_variance_fires_qdist;
          Alcotest.test_case "json export" `Quick test_drift_json ] );
      ( "slo",
        [ Alcotest.test_case "burn rates and firing" `Quick test_slo_burn_rates;
          Alcotest.test_case "latency objective" `Quick test_slo_latency_kind ] );
      ( "metrics",
        [ Alcotest.test_case "latency bucket env" `Quick test_latency_buckets_env ] );
      ( "shadow",
        [ Alcotest.test_case "deterministic across jobs" `Slow
            test_shadow_deterministic_across_jobs;
          Alcotest.test_case "perturbation detected" `Slow test_perturbation_detected;
          Alcotest.test_case "unperturbed stays quiet" `Slow test_unperturbed_stays_quiet;
          Alcotest.test_case "http matches socket" `Slow test_http_matches_socket ] ) ]
