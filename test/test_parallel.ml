(** Tests for the Util.Pool domain pool and for serial/parallel
    bit-equivalence of every parallelized hot path: cross-validation,
    GBDT/forest training, dataset synthesis, LSTM minibatch fitting and
    workload generation.  Run by dune under both CLARA_JOBS=1 and
    CLARA_JOBS=4 (the [jobs] calls below override the environment where a
    test needs a specific setting). *)

let with_jobs n f =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) f

(** Run [f] under 1 job and under 4, return both results. *)
let serial_vs_parallel f = (with_jobs 1 f, with_jobs 4 f)

let check_float_array name a b =
  Alcotest.(check (array (float 0.0))) name a b

(* -- pool correctness -- *)

let test_map_matches_serial () =
  let input = Array.init 1003 (fun i -> i) in
  let expected = Array.map (fun x -> (x * x) + 1) input in
  Alcotest.(check (array int)) "jobs=1" expected (with_jobs 1 (fun () -> Util.Pool.parallel_map (fun x -> (x * x) + 1) input));
  Alcotest.(check (array int)) "jobs=4" expected (with_jobs 4 (fun () -> Util.Pool.parallel_map (fun x -> (x * x) + 1) input));
  Alcotest.(check (array int)) "empty" [||] (Util.Pool.parallel_map (fun x -> x) [||])

let test_chunked_ranges_cover () =
  List.iter
    (fun (chunk, n) ->
      let ranges = Util.Pool.chunked_ranges ?chunk n in
      let covered = Array.make n false in
      Array.iter
        (fun (lo, hi) ->
          Alcotest.(check bool) "non-empty chunk" true (lo < hi);
          for i = lo to hi - 1 do
            Alcotest.(check bool) "no overlap" false covered.(i);
            covered.(i) <- true
          done)
        ranges;
      Alcotest.(check bool) "full cover" true (Array.for_all Fun.id covered))
    [ (None, 1); (None, 64); (None, 65); (None, 1000); (Some 7, 100); (Some 1000, 10) ]

let test_parallel_for_order_independent () =
  let n = 500 in
  let out = Array.make n 0 in
  with_jobs 4 (fun () -> Util.Pool.parallel_for 0 n (fun i -> out.(i) <- 3 * i));
  Alcotest.(check (array int)) "every index written" (Array.init n (fun i -> 3 * i)) out

let test_reduce_deterministic () =
  (* float sums: chunked ordered reduction must not depend on the job count *)
  let f i = 1.0 /. float_of_int (i + 1) in
  let a, b = serial_vs_parallel (fun () -> Util.Pool.parallel_reduce ~combine:( +. ) f 10_000) in
  Alcotest.(check (float 0.0)) "bit-identical harmonic sum" a b;
  let c = with_jobs 4 (fun () -> Util.Pool.parallel_reduce ~chunk:17 ~combine:( +. ) f 10_000) in
  let d = with_jobs 1 (fun () -> Util.Pool.parallel_reduce ~chunk:17 ~combine:( +. ) f 10_000) in
  Alcotest.(check (float 0.0)) "custom chunk bit-identical" c d

let test_exceptions_propagate () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "task exception re-raised" (Failure "boom") (fun () ->
          Util.Pool.parallel_for 0 256 (fun i -> if i = 101 then failwith "boom"));
      (* the pool survives a failed region *)
      let out = Util.Pool.parallel_map (fun x -> x + 1) (Array.init 64 Fun.id) in
      Alcotest.(check int) "pool alive after failure" 64 out.(63))

let test_nested_use_safe () =
  let result =
    with_jobs 4 (fun () ->
        Util.Pool.parallel_map
          (fun i ->
            Array.fold_left ( + ) 0
              (Util.Pool.parallel_map (fun j -> (10 * i) + j) (Array.init 20 Fun.id)))
          (Array.init 30 Fun.id))
  in
  Alcotest.(check (array int)) "nested regions compute serially but correctly"
    (Array.init 30 (fun i -> (200 * i) + 190))
    result

let test_jobs_env_fallback () =
  (* jobs () respects set_jobs; serial fallback executes on the caller *)
  with_jobs 1 (fun () ->
      Alcotest.(check int) "set_jobs visible" 1 (Util.Pool.jobs ());
      let self = Domain.self () in
      Util.Pool.parallel_for 0 8 (fun _ ->
          Alcotest.(check bool) "serial fallback stays on caller domain" true
            (Domain.self () = self)));
  Alcotest.check_raises "set_jobs rejects 0" (Invalid_argument "Pool.set_jobs: need >= 1 job")
    (fun () -> Util.Pool.set_jobs 0)

(* -- serial/parallel bit-equivalence of the wired hot paths -- *)

let test_kfold_stable () =
  let folds = Mlkit.Crossval.kfold ~seed:11 ~k:4 23 in
  let folds' = Mlkit.Crossval.kfold ~seed:11 ~k:4 23 in
  Alcotest.(check int) "k folds" 4 (List.length folds);
  List.iter2
    (fun (tr, te) (tr', te') ->
      Alcotest.(check (array int)) "train stable" tr tr';
      Alcotest.(check (array int)) "test stable" te te')
    folds folds';
  (* every index appears exactly once per fold partition, test disjoint train *)
  List.iter
    (fun (tr, te) ->
      let all = Array.append tr te in
      Array.sort compare all;
      Alcotest.(check (array int)) "partition of 0..22" (Array.init 23 Fun.id) all)
    folds;
  (* within-fold order is the shuffled-position order: fold f's test set is
     idx at positions f, f+k, f+2k, ... — recompute the reference here *)
  let rng = Util.Rng.create 11 in
  let idx = Array.init 23 Fun.id in
  Util.Rng.shuffle rng idx;
  List.iteri
    (fun fold (_, te) ->
      let expected =
        Array.of_list
          (List.filter_map
             (fun pos -> if pos mod 4 = fold then Some idx.(pos) else None)
             (List.init 23 Fun.id))
      in
      Alcotest.(check (array int)) "test order = position order" expected te)
    folds

let test_crossval_equivalent () =
  let xs = Array.init 120 (fun i -> [| float_of_int (i mod 11); float_of_int (i mod 5); float_of_int (i mod 3) |]) in
  let ys = Array.mapi (fun i x -> x.(0) +. (2.0 *. x.(1)) -. x.(2) +. float_of_int (i mod 2)) xs in
  let run () =
    Mlkit.Crossval.cv_regression ~k:5
      ~fit:(fun xs ys -> Mlkit.Tree.gbdt_fit ~n_stages:15 xs ys)
      ~predict:Mlkit.Tree.gbdt_predict xs ys
  in
  let (m1, s1), (m4, s4) = serial_vs_parallel run in
  Alcotest.(check (float 0.0)) "cv mean bit-identical" m1 m4;
  Alcotest.(check (float 0.0)) "cv stddev bit-identical" s1 s4

let test_gbdt_equivalent () =
  let xs = Array.init 300 (fun i -> Array.init 6 (fun d -> float_of_int ((i * (d + 2)) mod 23))) in
  let ys = Array.map (fun x -> x.(0) +. (x.(1) *. x.(2)) -. (3.0 *. x.(4))) xs in
  let run () =
    let g = Mlkit.Tree.gbdt_fit ~n_stages:25 xs ys in
    Array.map (Mlkit.Tree.gbdt_predict g) xs
  in
  let a, b = serial_vs_parallel run in
  check_float_array "gbdt predictions bit-identical" a b

let test_forest_equivalent () =
  let xs = Array.init 150 (fun i -> Array.init 5 (fun d -> float_of_int ((i + d) mod 13))) in
  let ys = Array.map (fun x -> (2.0 *. x.(0)) -. x.(3)) xs in
  let run () =
    let f = Mlkit.Tree.forest_fit ~n_trees:8 xs ys in
    Array.map (Mlkit.Tree.forest_predict f) xs
  in
  let a, b = serial_vs_parallel run in
  check_float_array "forest predictions bit-identical" a b

let test_synthesize_dataset_equivalent () =
  let run () = Clara.Predictor.synthesize_dataset ~n:12 () in
  let a, b = serial_vs_parallel run in
  Alcotest.(check int) "vocab size" (Clara.Vocab.size a.Clara.Predictor.vocab)
    (Clara.Vocab.size b.Clara.Predictor.vocab);
  Alcotest.(check int) "example count" (Array.length a.Clara.Predictor.examples)
    (Array.length b.Clara.Predictor.examples);
  Array.iter2
    (fun (ea : Clara.Predictor.example) (eb : Clara.Predictor.example) ->
      Alcotest.(check (array int)) "tokens" ea.Clara.Predictor.tokens eb.Clara.Predictor.tokens;
      Alcotest.(check (float 0.0)) "compute label" ea.Clara.Predictor.nic_compute eb.Clara.Predictor.nic_compute;
      Alcotest.(check (float 0.0)) "mem label" ea.Clara.Predictor.nic_mem eb.Clara.Predictor.nic_mem;
      Alcotest.(check (float 0.0)) "ir mem" ea.Clara.Predictor.ir_mem eb.Clara.Predictor.ir_mem)
    a.Clara.Predictor.examples b.Clara.Predictor.examples

let test_lstm_batch_equivalent () =
  let rng = Util.Rng.create 5 in
  let data =
    Array.init 40 (fun _ ->
        ( Array.init (4 + Util.Rng.int rng 12) (fun _ -> Util.Rng.int rng 32),
          [| Util.Rng.float rng *. 25.0 |] ))
  in
  let probe = Array.init 10 (fun i -> [| i; i + 1; (2 * i) mod 32 |]) in
  let run () =
    let m = Mlkit.Lstm.create ~vocab:32 7 in
    Mlkit.Lstm.fit ~epochs:3 ~batch:4 m data;
    Array.concat (Array.to_list (Array.map (Mlkit.Lstm.predict m) probe))
  in
  let a, b = serial_vs_parallel run in
  check_float_array "batched LSTM weights bit-identical" a b

let test_predictor_train_equivalent () =
  let run () =
    let ds = Clara.Predictor.synthesize_dataset ~n:8 () in
    let m = Clara.Predictor.train ~epochs:2 ds in
    List.map (fun (_, c, _) -> c)
      (Clara.Predictor.predict_element m (Nf_lang.Corpus.find "tcpack"))
  in
  let a, b = serial_vs_parallel run in
  Alcotest.(check (list (float 0.0))) "end-to-end predictor bit-identical" a b

let trace_fingerprint packets =
  List.map
    (fun (p : Nf_lang.Packet.t) ->
      ( Nf_lang.Packet.flow_key p, p.Nf_lang.Packet.ip_id, p.Nf_lang.Packet.tcp_seq,
        p.Nf_lang.Packet.tcp_flags, Bytes.to_string p.Nf_lang.Packet.payload ))
    packets

let test_workload_equivalent () =
  let spec = { Workload.large_flows with Workload.n_packets = 700; Workload.payload_len = 32 } in
  (* the uncached generator: [Workload.generate] would serve the second
     run from its memo instead of regenerating under four domains *)
  let run () = trace_fingerprint (Workload.generate_with spec) in
  let a, b = serial_vs_parallel run in
  Alcotest.(check bool) "packet stream bit-identical" true (a = b);
  Alcotest.(check int) "expected packet count" 700 (List.length a)

let test_scaleout_samples_equivalent () =
  let specs =
    [ { Workload.large_flows with Workload.n_packets = 60 };
      { Workload.default with Workload.n_packets = 60; Workload.payload_len = 120 } ]
  in
  let run () =
    List.map
      (fun (s : Clara.Scaleout.sample) -> (Array.to_list s.Clara.Scaleout.x, s.Clara.Scaleout.optimal))
      (Clara.Scaleout.training_samples ~n_programs:4 ~specs ())
  in
  let a, b = serial_vs_parallel run in
  Alcotest.(check bool) "scale-out samples bit-identical" true (a = b);
  Alcotest.(check bool) "samples non-empty" true (a <> [])

let test_bundle_bytes_equivalent () =
  (* A persisted bundle must not depend on the job count: same manifest,
     same file set, byte-identical frames.  (Scale-out is skipped here —
     its training is the dominant cost and its GBDT determinism is already
     covered above.) *)
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 4;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  let run () =
    Persist.Bundle.encode manifest
      (Clara.Pipeline.train ~quick:true ~with_scaleout:false ~with_colocation:true ())
  in
  let a, b = serial_vs_parallel run in
  Alcotest.(check (list string)) "same artifact files" (List.map fst a) (List.map fst b);
  List.iter2
    (fun (file, bytes_a) (_, bytes_b) ->
      Alcotest.(check bool) (file ^ " byte-identical across job counts") true (bytes_a = bytes_b))
    a b;
  Alcotest.(check bool) "bundle includes the colocation ranker" true
    (List.mem_assoc "colocation.clara" a)

(* -- optimized kernels vs retained references: the bench gate
   (`bench/main.exe parallel`) measures speedup against these pinned
   baselines, so their bit-equivalence is what makes the speedups
   meaningful.  Each test runs under whatever CLARA_JOBS the dune rule
   set (1 and 4), so the flat kernels are checked on both schedules. -- *)

let test_flat_gemm_matches_naive () =
  let rng = Util.Rng.create 19 in
  List.iter
    (fun (m, k, n) ->
      let a = Mlkit.La.randn_mat rng m k and b = Mlkit.La.randn_mat rng k n in
      let fc = Mlkit.La.Flat.create m n in
      Mlkit.La.Flat.gemm ~a:(Mlkit.La.Flat.of_rows a) ~b:(Mlkit.La.Flat.of_rows b) fc;
      let expected = Mlkit.Naive.matmul a b in
      Array.iteri
        (fun i row -> check_float_array (Printf.sprintf "row %d of %dx%dx%d" i m k n) row (Mlkit.La.Flat.to_rows fc).(i))
        expected)
    (* odd sizes exercise the tile and unroll remainders *)
    [ (1, 1, 1); (3, 5, 2); (17, 23, 9); (48, 48, 48); (50, 49, 51) ];
  Alcotest.check_raises "dimension mismatch rejected"
    (Invalid_argument "La.Flat.gemm: dimension mismatch") (fun () ->
      Mlkit.La.Flat.gemm
        ~a:(Mlkit.La.Flat.create 2 3)
        ~b:(Mlkit.La.Flat.create 4 2)
        (Mlkit.La.Flat.create 2 2))

let test_flat_lstm_matches_naive () =
  let rng = Util.Rng.create 23 in
  let data =
    Array.init 24 (fun _ ->
        ( Array.init (3 + Util.Rng.int rng 9) (fun _ -> Util.Rng.int rng 20),
          [| Util.Rng.float rng *. 30.0 |] ))
  in
  let probe = Array.init 8 (fun i -> [| i; (i + 7) mod 20; (3 * i) mod 20 |]) in
  let fast =
    let m = Mlkit.Lstm.create ~vocab:20 9 in
    Mlkit.Lstm.fit ~epochs:2 ~batch:4 m data;
    Array.map (Mlkit.Lstm.predict m) probe
  in
  let naive =
    let m = Mlkit.Naive.lstm_create ~vocab:20 9 in
    Mlkit.Naive.lstm_fit ~epochs:2 ~batch:4 m data;
    Array.map (Mlkit.Naive.lstm_predict m) probe
  in
  Array.iteri
    (fun i out -> check_float_array (Printf.sprintf "probe %d predictions" i) naive.(i) out)
    fast

let test_flat_gbdt_matches_naive () =
  let xs = Array.init 180 (fun i -> Array.init 7 (fun d -> float_of_int ((i * (d + 5)) mod 19))) in
  let ys = Array.map (fun x -> x.(0) +. (x.(2) *. x.(5)) -. (2.0 *. x.(6))) xs in
  let fast = Mlkit.Tree.gbdt_fit ~n_stages:18 xs ys in
  let naive = Mlkit.Naive.gbdt_fit ~n_stages:18 xs ys in
  check_float_array "gbdt predictions match the re-sorting reference"
    (Array.map (Mlkit.Tree.gbdt_predict naive) xs)
    (Array.map (Mlkit.Tree.gbdt_predict fast) xs)

let test_synthesize_matches_reference () =
  let a = Clara.Predictor.synthesize_dataset ~n:6 () in
  let b = Clara.Predictor.synthesize_dataset_reference ~n:6 () in
  Alcotest.(check int) "vocab size" (Clara.Vocab.size b.Clara.Predictor.vocab)
    (Clara.Vocab.size a.Clara.Predictor.vocab);
  Alcotest.(check bool) "examples structurally identical" true
    (a.Clara.Predictor.examples = b.Clara.Predictor.examples);
  Alcotest.(check bool) "dataset non-empty" true (Array.length a.Clara.Predictor.examples > 0)

let check_trace_matches_reference what spec packets =
  Alcotest.(check bool)
    (spec.Workload.name ^ " " ^ what ^ " identical to reference")
    true
    (trace_fingerprint packets = trace_fingerprint (Workload.generate_reference spec))

let test_workload_matches_reference () =
  List.iter
    (fun spec -> check_trace_matches_reference "trace" spec (Workload.generate spec))
    [ { Workload.default with Workload.n_packets = 400 };
      { Workload.large_flows with Workload.n_packets = 400 };
      { Workload.small_flows with Workload.n_packets = 200 } ]

(* -- the per-spec trace memo inside [Workload.generate] -- *)

(* More distinct specs than the memo holds (8): generating them all forces
   at least one reset, evicting whatever was cached before. *)
let memo_flood () =
  List.init 10 (fun i ->
      { Workload.default with
        Workload.name = Printf.sprintf "flood-%d" i;
        Workload.n_packets = 20 + i;
        Workload.seed = 900 + i })

let test_memo_copies_are_private () =
  let spec = { Workload.large_flows with Workload.n_packets = 300 } in
  List.iter
    (fun (p : Nf_lang.Packet.t) ->
      p.Nf_lang.Packet.ip_src <- 0;
      p.Nf_lang.Packet.tcp_flags <- 0xff;
      p.Nf_lang.Packet.tcp_seq <- p.Nf_lang.Packet.tcp_seq + 1;
      Bytes.fill p.Nf_lang.Packet.payload 0 (Bytes.length p.Nf_lang.Packet.payload) 'x')
    (Workload.generate spec);
  check_trace_matches_reference "after mutating a returned trace" spec (Workload.generate spec)

let test_memo_survives_reset () =
  let specs = memo_flood () in
  List.iter (fun spec -> check_trace_matches_reference "first visit" spec (Workload.generate spec)) specs;
  let first = List.hd specs in
  check_trace_matches_reference "revisit after reset" first (Workload.generate first);
  (* concurrent lookups and publishes from pool domains *)
  let traces = Util.Pool.parallel_map_list Workload.generate (specs @ specs) in
  List.iter2 (check_trace_matches_reference "concurrent") (specs @ specs) traces

let test_memo_port_demand () =
  let spec = { Workload.small_flows with Workload.n_packets = 800 } in
  let elt = Nf_lang.Corpus.find "cmsketch" in
  let expected =
    (Nicsim.Nic.port ~packets:(Workload.generate_reference spec) elt spec).Nicsim.Nic.demand
  in
  List.iter (fun s -> ignore (Workload.generate s)) (memo_flood ());
  List.iter
    (fun what ->
      Alcotest.(check bool) ("small-flows demand on memo " ^ what) true
        ((Nicsim.Nic.port elt spec).Nicsim.Nic.demand = expected))
    [ "miss"; "hit" ]

let test_scaleout_matches_reference () =
  let specs = [ { Workload.large_flows with Workload.n_packets = 50 } ] in
  let a = Clara.Scaleout.training_samples ~n_programs:3 ~specs () in
  let b = Clara.Scaleout.training_samples_reference ~n_programs:3 ~specs () in
  Alcotest.(check bool) "samples identical to reference" true (a = b);
  Alcotest.(check bool) "samples non-empty" true (a <> [])

(* -- cost-aware chunking: the serial-fallback policy itself -- *)

let test_cost_cutoff_policy () =
  (* no cost hint: never forced serial *)
  Alcotest.(check bool) "no hint" false (Util.Pool.too_small_for_parallelism 1_000_000);
  (* 100 items at 0.5 us = 50 us of work: serial *)
  Alcotest.(check bool) "tiny region serial" true
    (Util.Pool.too_small_for_parallelism ~cost:0.5 100);
  (* 1 ms of estimated work is the (exclusive) boundary *)
  Alcotest.(check bool) "at cutoff goes parallel" false
    (Util.Pool.too_small_for_parallelism ~cost:10.0 100);
  Alcotest.(check bool) "just below cutoff stays serial" true
    (Util.Pool.too_small_for_parallelism ~cost:9.99 100);
  (* big regions with per-item hints parallelize *)
  Alcotest.(check bool) "big region parallel" false
    (Util.Pool.too_small_for_parallelism ~cost:0.5 100_000)

let test_cost_hint_preserves_results () =
  (* the hint is a scheduling decision only: same results with and
     without it, serial or parallel, including through parallel_map_list *)
  let input = Array.init 2048 (fun i -> i) in
  let expected = Array.map (fun x -> (7 * x) mod 1001) input in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          Alcotest.(check (array int))
            (Printf.sprintf "cheap hint jobs=%d" jobs)
            expected
            (Util.Pool.parallel_map ~cost:0.01 (fun x -> (7 * x) mod 1001) input);
          Alcotest.(check (array int))
            (Printf.sprintf "expensive hint jobs=%d" jobs)
            expected
            (Util.Pool.parallel_map ~cost:500.0 (fun x -> (7 * x) mod 1001) input);
          Alcotest.(check (list int))
            (Printf.sprintf "list map hint jobs=%d" jobs)
            (Array.to_list expected)
            (Util.Pool.parallel_map_list ~cost:0.01
               (fun x -> (7 * x) mod 1001)
               (Array.to_list input))))
    [ 1; 4 ]

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "chunked ranges cover" `Quick test_chunked_ranges_cover;
          Alcotest.test_case "parallel_for writes all" `Quick test_parallel_for_order_independent;
          Alcotest.test_case "ordered reduce deterministic" `Quick test_reduce_deterministic;
          Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
          Alcotest.test_case "nested use safe" `Quick test_nested_use_safe;
          Alcotest.test_case "serial fallback" `Quick test_jobs_env_fallback ] );
      ( "equivalence",
        [ Alcotest.test_case "kfold stable order" `Quick test_kfold_stable;
          Alcotest.test_case "crossval" `Quick test_crossval_equivalent;
          Alcotest.test_case "gbdt training" `Quick test_gbdt_equivalent;
          Alcotest.test_case "random forest" `Quick test_forest_equivalent;
          Alcotest.test_case "dataset synthesis" `Slow test_synthesize_dataset_equivalent;
          Alcotest.test_case "lstm minibatch fit" `Quick test_lstm_batch_equivalent;
          Alcotest.test_case "predictor end-to-end" `Slow test_predictor_train_equivalent;
          Alcotest.test_case "workload generation" `Quick test_workload_equivalent;
          Alcotest.test_case "scale-out samples" `Slow test_scaleout_samples_equivalent;
          Alcotest.test_case "persisted bundle bytes" `Slow test_bundle_bytes_equivalent ] );
      ( "reference",
        [ Alcotest.test_case "flat gemm vs naive" `Quick test_flat_gemm_matches_naive;
          Alcotest.test_case "flat lstm vs naive" `Quick test_flat_lstm_matches_naive;
          Alcotest.test_case "flat gbdt vs naive" `Quick test_flat_gbdt_matches_naive;
          Alcotest.test_case "synthesize vs reference" `Slow test_synthesize_matches_reference;
          Alcotest.test_case "workload vs reference" `Quick test_workload_matches_reference;
          Alcotest.test_case "workload memo copies are private" `Quick
            test_memo_copies_are_private;
          Alcotest.test_case "workload memo survives reset" `Quick test_memo_survives_reset;
          Alcotest.test_case "port demand on memo miss and hit" `Quick test_memo_port_demand;
          Alcotest.test_case "scale-out vs reference" `Slow test_scaleout_matches_reference ] );
      ( "chunking",
        [ Alcotest.test_case "cost cutoff policy" `Quick test_cost_cutoff_policy;
          Alcotest.test_case "cost hint preserves results" `Quick test_cost_hint_preserves_results ] ) ]
