(** Benchmark harness.

    - `bench/main.exe` (no args): regenerate every paper table and figure,
      printing the same rows/series the paper reports.  With CLARA_JOBS > 1
      the independent experiments fan out as concurrent child processes;
      output is buffered per experiment and printed in registry order, so
      the report reads identically to a serial run.
    - `bench/main.exe <id> [...]`: run selected experiments (ids: fig1,
      table1, table2, fig8..fig16).
    - `bench/main.exe micro`: Bechamel micro-benchmarks, one per
      table/figure kernel plus the Util.Pool parallel kernels.
    - `bench/main.exe parallel`: time the parallelized kernels under
      CLARA_JOBS=1 and the current job count and write the machine-readable
      BENCH_parallel.json summary (the cross-PR perf trajectory record).
    - `bench/main.exe obs`: measure the Obs.Span instrumentation overhead
      (bare kernel vs disabled spans vs enabled spans) and write
      BENCH_obs.json; exits nonzero when disabled-mode overhead exceeds 5%.
    - `bench/main.exe robust`: measure warm-path request latency through
      the retrying client (p50/p99) and the deterministic load-shedding
      rate at 1x/4x/16x overload; writes BENCH_robust.json and exits
      nonzero when the admission policy or the committed baseline drifts.
    - `bench/main.exe quality`: gate the prediction-quality telemetry:
      shadow-off warm fast-path p50 inside the 15 µs envelope, and a
      synthetic nicsim profile shift detected in a deterministic number
      of shadow samples; writes BENCH_quality.json.
    - `bench/main.exe flight`: gate the flight recorder: warm fast-path
      hit p50 with recording on must stay within 10% of recording off
      (and off must stay inside the 15 µs envelope — the profiler-off
      span hook is part of that path); writes BENCH_flight.json.
    - `bench/main.exe router`: gate the scale-out front: warm analyze
      round-trip p50 direct to one worker vs through the router (the
      routed overhead, drift-gated), and pipelined throughput through a
      1-worker vs 3-worker topology (>= 1.8x on a box with enough cores;
      report-only "degraded" below that); writes BENCH_router.json.
    - `bench/main.exe list`: list experiment ids.

    CLARA_FULL=1 enlarges training sets and sweeps. *)

let usage () =
  print_endline
    "usage: main.exe [--trace FILE] [--metrics FILE] [list | micro | parallel | serve | obs | robust | fastpath | quality | flight | router | <experiment id>...]";
  print_endline "experiments:";
  List.iter
    (fun e -> Printf.printf "  %-8s %s\n" e.Experiments.Registry.id e.Experiments.Registry.title)
    Experiments.Registry.all

(* -- concurrent experiment fan-out (process-per-experiment) --

   Experiments print straight to stdout, so in-process domain parallelism
   would interleave their reports.  Instead each experiment re-executes
   this binary as a child with stdout sent to a temp file; children run
   with CLARA_JOBS=1 (the fan-out already uses the cores) and results are
   printed in registry order, making the full report byte-identical to a
   serial run. *)

let child_env () =
  let kept =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.length kv >= 11 && String.sub kv 0 11 = "CLARA_JOBS="))
  in
  Array.of_list ("CLARA_JOBS=1" :: kept)

let spawn_experiment env (e : Experiments.Registry.experiment) =
  let path = Filename.temp_file ("clara_bench_" ^ e.Experiments.Registry.id) ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name; e.Experiments.Registry.id |]
      env Unix.stdin fd fd
  in
  Unix.close fd;
  (pid, path)

let cat_file path =
  let ic = open_in path in
  (try
     while true do
       print_endline (input_line ic)
     done
   with End_of_file -> ());
  close_in ic

let run_all_concurrent jobs =
  let env = child_env () in
  let pending = Queue.create () in
  List.iter (fun e -> Queue.add e pending) Experiments.Registry.all;
  let running = Hashtbl.create 16 in
  (* id -> output file, filled as children finish *)
  let finished = Hashtbl.create 16 in
  let failed = ref [] in
  let reap () =
    let pid, status = Unix.wait () in
    match Hashtbl.find_opt running pid with
    | None -> ()
    | Some ((e : Experiments.Registry.experiment), path) ->
      Hashtbl.remove running pid;
      Hashtbl.replace finished e.Experiments.Registry.id path;
      if status <> Unix.WEXITED 0 then failed := e.Experiments.Registry.id :: !failed
  in
  while (not (Queue.is_empty pending)) || Hashtbl.length running > 0 do
    if (not (Queue.is_empty pending)) && Hashtbl.length running < jobs then begin
      let e = Queue.pop pending in
      let pid, path = spawn_experiment env e in
      Hashtbl.replace running pid (e, path)
    end
    else reap ()
  done;
  List.iter
    (fun (e : Experiments.Registry.experiment) ->
      match Hashtbl.find_opt finished e.Experiments.Registry.id with
      | Some path ->
        cat_file path;
        Sys.remove path
      | None -> ())
    Experiments.Registry.all;
  match !failed with
  | [] -> ()
  | ids ->
    Printf.printf "FAILED experiments: %s\n" (String.concat ", " ids);
    exit 1

let run_all () =
  let jobs = Util.Pool.size () in
  if jobs > 1 then run_all_concurrent jobs else Experiments.Registry.run_all ();
  print_newline ();
  print_endline "All experiments complete. See EXPERIMENTS.md for paper-vs-measured notes."

(* -- Bechamel micro-benchmarks: one kernel per table/figure -- *)

let micro_tests () =
  let open Bechamel in
  let spec = { Workload.default with Workload.n_packets = 200; Workload.proto = Workload.Mixed } in
  let mazu = Nf_lang.Corpus.find "Mazu-NAT" in
  let ported = Nicsim.Nic.port mazu spec in
  let demand = ported.Nicsim.Nic.demand in
  let ir = Nf_frontend.Lower.lower_element (Nf_lang.Corpus.find "iplookup_256") in
  let vocab = Clara.Vocab.create () in
  let prep = Clara.Prepare.prepare vocab mazu in
  let tokens =
    match List.filter (fun b -> Array.length b.Clara.Prepare.tokens > 4) prep.Clara.Prepare.blocks with
    | b :: _ -> b.Clara.Prepare.tokens
    | [] -> [| 1; 2; 3; 4 |]
  in
  let lstm = Mlkit.Lstm.create ~vocab:64 99 in
  let stats = Synth.Ast_stats.of_corpus (Nf_lang.Corpus.table2 ()) in
  let packets = Workload.generate spec in
  let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:10 ()) () in
  (* pool kernels: raw region overhead and a real fold-parallel crossval *)
  let pool_input = Array.init 4096 float_of_int in
  let cv_xs = Array.init 160 (fun i -> [| float_of_int (i mod 13); float_of_int (i mod 7) |]) in
  let cv_ys = Array.map (fun x -> (2.0 *. x.(0)) -. x.(1)) cv_xs in
  let cv ~jobs () =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () ->
        Mlkit.Crossval.cv_regression ~k:5
          ~fit:(fun xs ys -> Mlkit.Tree.gbdt_fit ~n_stages:10 xs ys)
          ~predict:Mlkit.Tree.gbdt_predict cv_xs cv_ys)
  in
  [ Test.make ~name:"fig1:port+measure Mazu-NAT"
      (Staged.stage (fun () -> ignore (Nicsim.Nic.measure ~cores:8 ported)));
    Test.make ~name:"table1:synthesize program"
      (Staged.stage (fun () -> ignore (Synth.Generator.generate ~stats ~seed:77 "bench_syn")));
    Test.make ~name:"table2:prepare element"
      (Staged.stage (fun () -> ignore (Clara.Prepare.prepare (Clara.Vocab.create ()) mazu)));
    Test.make ~name:"fig8:lstm inference"
      (Staged.stage (fun () -> ignore (Mlkit.Lstm.predict lstm tokens)));
    Test.make ~name:"fig9:classify element"
      (Staged.stage (fun () -> ignore (Clara.Algo_id.classify algo mazu)));
    Test.make ~name:"fig10:nfcc compile iplookup"
      (Staged.stage (fun () -> ignore (Nicsim.Nfcc.compile ir)));
    Test.make ~name:"fig11:core sweep"
      (Staged.stage (fun () -> ignore (Nicsim.Multicore.sweep demand)));
    Test.make ~name:"fig12:placement ILP"
      (Staged.stage (fun () -> ignore (Clara.Placement.solve mazu ported)));
    Test.make ~name:"fig13:coalescing suggest"
      (Staged.stage (fun () -> ignore (Clara.Coalesce.suggest mazu ported.Nicsim.Nic.profile)));
    Test.make ~name:"fig14:colocate pair"
      (Staged.stage (fun () -> ignore (Nicsim.Colocate.colocate demand demand)));
    Test.make ~name:"fig15:reconfigure placement"
      (Staged.stage (fun () -> ignore (Nicsim.Nic.reconfigure ported Nicsim.Nic.naive_port)));
    Test.make ~name:"fig16:host interp 200 pkts"
      (Staged.stage (fun () ->
           let interp = Nf_lang.Interp.create ~mode:Nf_lang.State.Nic mazu in
           ignore (Nf_lang.Interp.run interp packets)));
    Test.make ~name:"pool:parallel_map 4k sqrt"
      (Staged.stage (fun () -> ignore (Util.Pool.parallel_map sqrt pool_input)));
    Test.make ~name:"pool:serial_map 4k sqrt (baseline)"
      (Staged.stage (fun () -> ignore (Array.map sqrt pool_input)));
    Test.make ~name:"pool:crossval gbdt k=5 (parallel folds)"
      (Staged.stage (fun () -> ignore (cv ~jobs:(max 2 (Util.Pool.jobs ())) ())));
    Test.make ~name:"pool:crossval gbdt k=5 (serial folds)"
      (Staged.stage (fun () -> ignore (cv ~jobs:1 ()))) ]

let run_micro () =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  print_endline "Bechamel micro-benchmarks (monotonic clock, ns/run):";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"clara" [ test ]) in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ ns ] -> Printf.printf "  %-45s %14.0f ns/run\n%!" name ns
          | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    (micro_tests ())

(* -- BENCH_parallel.json: speedup of the optimized compute core over the
   retained references (Mlkit.Naive, *_reference), at jobs in {1, 2, 4},
   with hard floors.

   Methodology: for every kernel and jobs level, the optimized path (at
   [jobs]) and its pinned reference (always serial — it is the frozen
   baseline) run interleaved inside one rep loop, keeping the minimum of
   each.  Pairing fast and reference back-to-back sheds machine drift
   that separate best-of loops let through; on this box it turns a
   ±0.2x wobble into a stable ratio.  On a single-core host the pool
   clamps every level to width 1 (effective_jobs in the JSON records
   this), so the speedups measure the flat-buffer/algorithmic rewrite;
   on a multi-core host the higher levels add domain parallelism on
   top. -- *)

let parallel_kernels () =
  let rng = Util.Rng.create 7 in
  let a_rows = Mlkit.La.randn_mat rng 192 192 in
  let b_rows = Mlkit.La.randn_mat rng 192 192 in
  let fa = Mlkit.La.Flat.of_rows a_rows and fb = Mlkit.La.Flat.of_rows b_rows in
  let fc = Mlkit.La.Flat.create 192 192 in
  let cv_xs = Array.init 240 (fun i -> Array.init 8 (fun d -> float_of_int ((i * (d + 3)) mod 17))) in
  let cv_ys = Array.map (fun x -> Array.fold_left ( +. ) 0.0 x) cv_xs in
  let lstm_data =
    let rng = Util.Rng.create 31 in
    Array.init 96 (fun _ ->
        (Array.init (8 + Util.Rng.int rng 24) (fun _ -> Util.Rng.int rng 48), [| Util.Rng.float rng *. 40.0 |]))
  in
  let wspec = { Workload.default with Workload.n_packets = 20_000 } in
  (* (name, reps, optimized, reference); reps scale inversely with kernel
     cost so the whole gate stays around a minute *)
  [ ( "la_gemm_192", 7,
      (fun () -> Mlkit.La.Flat.gemm ~a:fa ~b:fb fc),
      fun () -> ignore (Mlkit.Naive.matmul a_rows b_rows) );
    ( "lstm_fit_batch8", 3,
      (fun () ->
        let m = Mlkit.Lstm.create ~vocab:48 17 in
        Mlkit.Lstm.fit ~epochs:2 ~batch:8 m lstm_data),
      fun () ->
        let m = Mlkit.Naive.lstm_create ~vocab:48 17 in
        Mlkit.Naive.lstm_fit ~epochs:2 ~batch:8 m lstm_data );
    ( "gbdt_fit_240x8", 3,
      (fun () -> ignore (Mlkit.Tree.gbdt_fit ~n_stages:40 cv_xs cv_ys)),
      fun () -> ignore (Mlkit.Naive.gbdt_fit ~n_stages:40 cv_xs cv_ys) );
    ( "crossval_gbdt_k5", 3,
      (fun () ->
        ignore
          (Mlkit.Crossval.cv_regression ~k:5
             ~fit:(fun xs ys -> Mlkit.Tree.gbdt_fit ~n_stages:20 xs ys)
             ~predict:Mlkit.Tree.gbdt_predict cv_xs cv_ys)),
      fun () ->
        ignore
          (Mlkit.Crossval.cv_regression ~k:5
             ~fit:(fun xs ys -> Mlkit.Naive.gbdt_fit ~n_stages:20 xs ys)
             ~predict:Mlkit.Tree.gbdt_predict cv_xs cv_ys) );
    ( "synthesize_dataset_n30", 7,
      (fun () -> ignore (Clara.Predictor.synthesize_dataset ~n:30 ())),
      fun () -> ignore (Clara.Predictor.synthesize_dataset_reference ~n:30 ()) );
    ( "scaleout_samples_n8", 2,
      (fun () -> ignore (Clara.Scaleout.training_samples ~n_programs:8 ())),
      fun () -> ignore (Clara.Scaleout.training_samples_reference ~n_programs:8 ()) );
    ( "workload_generate_20k", 5,
      (* the uncached generator: [Workload.generate] would time memo copies *)
      (fun () -> ignore (Workload.generate_with wspec)),
      fun () -> ignore (Workload.generate_reference wspec) ) ]

let parallel_jobs_levels = [ 1; 2; 4 ]

(* Speedup floors.  jobs=1 is informational (the rewrite should already
   win serially, but only the gated levels fail the run); jobs=2 must
   never lose to the reference; jobs=4 must show the work paying off,
   and the embarrassingly-parallel scale-out sweep must scale. *)
let parallel_floor ~name ~jobs =
  if jobs >= 4 then Some (if name = "scaleout_samples_n8" then 2.0 else 1.5)
  else if jobs >= 2 then Some 1.0
  else None

let run_parallel_report () =
  let saved = Util.Pool.jobs () in
  let cores = Domain.recommended_domain_count () in
  let rows =
    List.map
      (fun (name, reps, fast, refr) ->
        let levels =
          List.map
            (fun j ->
              (* warm both paths (allocator, memo tables) before timing *)
              Util.Pool.set_jobs j;
              fast ();
              Util.Pool.set_jobs 1;
              refr ();
              let eff = ref 1 in
              let bf = ref infinity and br = ref infinity in
              for _ = 1 to reps do
                Util.Pool.set_jobs j;
                eff := Util.Pool.size ();
                let t0 = Unix.gettimeofday () in
                fast ();
                let t1 = Unix.gettimeofday () in
                Util.Pool.set_jobs 1;
                let t2 = Unix.gettimeofday () in
                refr ();
                let t3 = Unix.gettimeofday () in
                bf := min !bf (t1 -. t0);
                br := min !br (t3 -. t2)
              done;
              (j, !eff, !bf, !br))
            parallel_jobs_levels
        in
        (name, levels))
      (parallel_kernels ())
  in
  Util.Pool.set_jobs saved;
  let speedup fast refr = refr /. Float.max 1e-9 fast in
  let violations = ref [] in
  List.iter
    (fun (name, levels) ->
      List.iter
        (fun (j, _eff, bf, br) ->
          match parallel_floor ~name ~jobs:j with
          | Some floor when speedup bf br < floor ->
            violations :=
              Printf.sprintf "%s at jobs=%d: %.2fx < required %.2fx" name j (speedup bf br) floor
              :: !violations
          | _ -> ())
        levels)
    rows;
  let pass = !violations = [] in
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n  \"schema\": \"clara-parallel-bench/2\",\n  \"cores\": %d,\n  \"jobs_levels\": [%s],\n\
    \  \"pass\": %b,\n  \"kernels\": [\n"
    cores
    (String.concat ", " (List.map string_of_int parallel_jobs_levels))
    pass;
  List.iteri
    (fun i (name, levels) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"reference_s\": %.6f, \"levels\": [\n" name
        (match levels with (_, _, _, br) :: _ -> br | [] -> 0.0);
      List.iteri
        (fun k (j, eff, bf, br) ->
          Printf.fprintf oc
            "      {\"jobs\": %d, \"effective_jobs\": %d, \"fast_s\": %.6f, \"ref_s\": %.6f, \
             \"speedup\": %.3f%s%s}%s\n"
            j eff bf br (speedup bf br)
            (match parallel_floor ~name ~jobs:j with
            | Some f -> Printf.sprintf ", \"floor\": %.1f" f
            | None -> "")
            (* a clamped level measured the rewrite, not domain
               parallelism: mark it so readers don't compare the number
               across hosts *)
            (if eff < j then ", \"degraded\": true" else "")
            (if k = List.length levels - 1 then "" else ","))
        levels;
      Printf.fprintf oc "    ]}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf
    "Compute-core speedups vs retained references (cores=%d), also written to BENCH_parallel.json:\n"
    cores;
  List.iter
    (fun (name, levels) ->
      Printf.printf "  %-24s" name;
      List.iter
        (fun (j, eff, bf, br) ->
          let s = speedup bf br in
          let gated = match parallel_floor ~name ~jobs:j with Some f -> s < f | None -> false in
          Printf.printf "  j%d(w%d) %6.2fx%s" j eff s (if gated then "!" else " "))
        levels;
      (match levels with
      | (_, _, bf, br) :: _ -> Printf.printf "  [ref %7.1f ms, fast %7.1f ms serial]" (br *. 1e3) (bf *. 1e3)
      | [] -> ());
      print_newline ())
    rows;
  let max_jobs = List.fold_left max 1 parallel_jobs_levels in
  if cores < max_jobs then
    Printf.printf
      "WARNING: %d core(s) < jobs=%d; clamped levels are marked \"degraded\" in \
       BENCH_parallel.json and measure the serial rewrite only\n"
      cores max_jobs;
  if not pass then begin
    List.iter (fun v -> Printf.printf "FAIL: %s\n" v) (List.rev !violations);
    exit 1
  end;
  Printf.printf "PASS: all kernels meet their speedup floors\n"

(* -- BENCH_serve.json: why the artifact store exists — cold train+analyze
   vs warm-starting from a persisted bundle vs a cache hit in the insight
   server, for the same (NF, workload) query -- *)

let run_serve_report () =
  let nf = "cmsketch" in
  let elt = Nf_lang.Corpus.find nf in
  let spec = Serve.Server.mixed_spec in
  let cold, models =
    let t0 = Unix.gettimeofday () in
    let models = Clara.Pipeline.train ~quick:true ~with_colocation:true () in
    ignore (Clara.Pipeline.report models elt spec);
    (Unix.gettimeofday () -. t0, models)
  in
  let dir = Filename.temp_file "clara_bundle" ".d" in
  Sys.remove dir;
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 4;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir manifest models;
  let warm, loaded =
    let t0 = Unix.gettimeofday () in
    let bundle =
      match Persist.Bundle.load ~dir with
      | Ok b -> b
      | Error e -> failwith (Persist.Wire.error_to_string e)
    in
    ignore (Clara.Pipeline.report bundle.Persist.Bundle.models elt spec);
    (Unix.gettimeofday () -. t0, bundle.Persist.Bundle.models)
  in
  let server = Serve.Server.create loaded in
  let query =
    Printf.sprintf "{\"id\":1,\"cmd\":\"analyze\",\"nf\":\"%s\",\"workload\":\"mixed\"}" nf
  in
  ignore (Serve.Server.handle_request server query);
  let cached =
    let t0 = Unix.gettimeofday () in
    ignore (Serve.Server.handle_request server query);
    Unix.gettimeofday () -. t0
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  let speedup over = cold /. Float.max 1e-9 over in
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-serve-bench/1\",\n\
    \  \"nf\": \"%s\",\n\
    \  \"workload\": \"mixed\",\n\
    \  \"cold_train_s\": %.6f,\n\
    \  \"warm_load_s\": %.6f,\n\
    \  \"cached_query_s\": %.6f,\n\
    \  \"warm_speedup\": %.1f,\n\
    \  \"cached_speedup\": %.1f\n\
     }\n"
    nf cold warm cached (speedup warm) (speedup cached);
  close_out oc;
  Printf.printf "Serve path timings for %s (also written to BENCH_serve.json):\n" nf;
  Printf.printf "  cold  (train + analyze)   %10.3f s\n" cold;
  Printf.printf "  warm  (load + analyze)    %10.3f s   %8.1fx vs cold\n" warm (speedup warm);
  Printf.printf "  cached (LRU hit in serve) %10.6f s   %8.1fx vs cold\n" cached (speedup cached)

(* -- BENCH_obs.json: what the span instrumentation costs — a bare kernel
   vs the same kernel under [Obs.Span.with_] with recording disabled (the
   always-compiled-in production configuration) vs enabled.  The disabled
   overhead is the number that matters: it is paid by every instrumented
   call in every untraced run, so the report gates on it. -- *)

(* Roughly the size of the smallest instrumented units (a block encode, a
   GBDT stage): big enough that one atomic load is noise, small enough
   that a per-span cost would show. *)
let obs_kernel () =
  let acc = ref 0.0 in
  for i = 1 to 256 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  !acc

(* Minimum over reps sheds scheduler and GC noise. *)
let obs_time ~iters ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let sink = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      sink := !sink +. f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    ignore (Sys.opaque_identity !sink);
    if dt < !best then best := dt
  done;
  !best

(* The committed baseline's disabled overhead, for the drift gate: a fresh
   measurement more than [drift_limit_pp] percentage points away from the
   checked-in BENCH_obs.json means the disabled path regressed (or the
   baseline went stale) and the run exits nonzero. *)
let read_committed_disabled_pct () =
  if not (Sys.file_exists "BENCH_obs.json") then None
  else
    let ic = open_in_bin "BENCH_obs.json" in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    (* the file is pretty-printed; Jsonl wants one line *)
    let flat = String.concat " " (String.split_on_char '\n' raw) in
    match Serve.Jsonl.of_string flat with
    | Ok j -> Serve.Jsonl.num_member "disabled_overhead_pct" j
    | Error _ -> None

let run_obs_report () =
  let iters = 100_000 and reps = 5 in
  let committed = read_committed_disabled_pct () in
  let saved = Obs.Span.enabled () in
  let instrumented () = Obs.Span.with_ ~cat:"bench" "bench.obs_kernel" obs_kernel in
  Obs.Span.set_enabled false;
  let bare = obs_time ~iters ~reps obs_kernel in
  let disabled = obs_time ~iters ~reps instrumented in
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  let enabled = obs_time ~iters ~reps instrumented in
  Obs.Span.reset ();
  Obs.Span.set_enabled saved;
  let per_call_ns t = t /. float_of_int iters *. 1e9 in
  let overhead_pct t = (t -. bare) /. Float.max 1e-12 bare *. 100.0 in
  let disabled_pct = overhead_pct disabled and enabled_pct = overhead_pct enabled in
  let limit_pct = 5.0 in
  let pass = disabled_pct <= limit_pct in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-obs-bench/1\",\n\
    \  \"iters\": %d,\n\
    \  \"bare_ns_per_call\": %.2f,\n\
    \  \"disabled_ns_per_call\": %.2f,\n\
    \  \"enabled_ns_per_call\": %.2f,\n\
    \  \"disabled_overhead_pct\": %.2f,\n\
    \  \"enabled_overhead_pct\": %.2f,\n\
    \  \"disabled_limit_pct\": %.1f,\n\
    \  \"pass\": %b\n\
     }\n"
    iters (per_call_ns bare) (per_call_ns disabled) (per_call_ns enabled) disabled_pct
    enabled_pct limit_pct pass;
  close_out oc;
  Printf.printf "Span instrumentation overhead (also written to BENCH_obs.json):\n";
  Printf.printf "  bare kernel       %10.1f ns/call\n" (per_call_ns bare);
  Printf.printf "  spans disabled    %10.1f ns/call   overhead %+6.2f%% (limit %.1f%%)\n"
    (per_call_ns disabled) disabled_pct limit_pct;
  Printf.printf "  spans enabled     %10.1f ns/call   overhead %+6.2f%%\n" (per_call_ns enabled)
    enabled_pct;
  if not pass then begin
    Printf.printf "FAIL: disabled-span overhead %.2f%% exceeds %.1f%%\n" disabled_pct limit_pct;
    exit 1
  end;
  let drift_limit_pp = 10.0 in
  match committed with
  | None -> Printf.printf "  (no committed BENCH_obs.json baseline; drift gate skipped)\n"
  | Some baseline ->
    let drift = Float.abs (disabled_pct -. baseline) in
    Printf.printf "  drift vs committed baseline: %+.2f pp (baseline %+.2f%%, limit %.1f pp)\n"
      (disabled_pct -. baseline) baseline drift_limit_pp;
    if drift > drift_limit_pp then begin
      Printf.printf "FAIL: disabled-span overhead drifted %.2f pp from the committed baseline\n"
        drift;
      exit 1
    end

(* -- BENCH_robust.json: what the hardening layer costs and guarantees —
   request latency through the retrying client against a live socket
   server (p50/p99), and the load-shedding rate at 1x/4x/16x overload.
   Shedding is deterministic: a batch of [f * max_pending] lines admits
   exactly [max_pending], so the rate is 1 - 1/f bit-for-bit; the drift
   gate on the 16x rate therefore catches any change to the admission
   policy, not measurement noise. -- *)

let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) idx))

let read_committed_shed_16x () =
  if not (Sys.file_exists "BENCH_robust.json") then None
  else
    let ic = open_in_bin "BENCH_robust.json" in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let flat = String.concat " " (String.split_on_char '\n' raw) in
    match Serve.Jsonl.of_string flat with
    | Ok j -> Serve.Jsonl.num_member "shed_rate_16x" j
    | Error _ -> None

let run_robust_report () =
  let committed = read_committed_shed_16x () in
  let models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
    let predictor = Clara.Predictor.train ~epochs:1 ds in
    let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
    { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }
  in
  (* latency: warm-cache analyze round trips through Serve.Client against
     the real socket server (connect is reused, ids are idempotent) *)
  let n_requests = 200 in
  let server = Serve.Server.create ~cache_capacity:16 models in
  ignore
    (Serve.Server.process_batch server [ {|{"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} ]);
  let path = Filename.temp_file "clara_bench_robust" ".sock" in
  Sys.remove path;
  let srv = Domain.spawn (fun () -> Serve.Server.run server ~socket_path:path) in
  let client = Serve.Client.create ~timeout_s:10.0 ~retries:2 ~socket_path:path () in
  let analyze_fields =
    [ ("cmd", Serve.Jsonl.Str "analyze"); ("nf", Serve.Jsonl.Str "tcpack");
      ("workload", Serve.Jsonl.Str "mixed") ]
  in
  let lat = Array.make n_requests 0.0 in
  for i = 0 to n_requests - 1 do
    let t0 = Unix.gettimeofday () in
    (match Serve.Client.request client analyze_fields with
    | Ok _ -> ()
    | Error e -> failwith ("robust bench query failed: " ^ Serve.Client.error_to_string e));
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.0
  done;
  ignore (Serve.Client.request client [ ("cmd", Serve.Jsonl.Str "shutdown") ]);
  Serve.Client.close client;
  Domain.join srv;
  Array.sort compare lat;
  let p50 = percentile lat 50.0 and p99 = percentile lat 99.0 in
  (* shedding: oversized batches straight through process_batch on a
     fresh server with a small admission bound *)
  let max_pending = 64 in
  let shed_rate factor =
    let s = Serve.Server.create ~cache_capacity:16 ~max_pending models in
    let total = factor * max_pending in
    let lines =
      List.init total (fun i -> Printf.sprintf {|{"id":%d,"cmd":"ping"}|} i)
    in
    let replies = Serve.Server.process_batch s lines in
    let overloaded =
      List.length
        (List.filter
           (fun line ->
             match Serve.Jsonl.of_string line with
             | Ok v -> Serve.Jsonl.member "overloaded" v = Some (Serve.Jsonl.Bool true)
             | Error _ -> false)
           replies)
    in
    if List.length replies <> total then failwith "robust bench: reply count mismatch";
    float_of_int overloaded /. float_of_int total
  in
  let shed_1x = shed_rate 1 and shed_4x = shed_rate 4 and shed_16x = shed_rate 16 in
  let oc = open_out "BENCH_robust.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-robust-bench/1\",\n\
    \  \"requests\": %d,\n\
    \  \"latency_p50_ms\": %.3f,\n\
    \  \"latency_p99_ms\": %.3f,\n\
    \  \"max_pending\": %d,\n\
    \  \"shed_rate_1x\": %.4f,\n\
    \  \"shed_rate_4x\": %.4f,\n\
    \  \"shed_rate_16x\": %.4f\n\
     }\n"
    n_requests p50 p99 max_pending shed_1x shed_4x shed_16x;
  close_out oc;
  Printf.printf "Robustness report (also written to BENCH_robust.json):\n";
  Printf.printf "  warm analyze via client   p50 %8.3f ms   p99 %8.3f ms   (%d requests)\n" p50
    p99 n_requests;
  Printf.printf "  shed rate (max_pending=%d)   1x %6.4f   4x %6.4f   16x %6.4f\n" max_pending
    shed_1x shed_4x shed_16x;
  let expected f = 1.0 -. (1.0 /. float_of_int f) in
  List.iter
    (fun (f, rate) ->
      if Float.abs (rate -. expected f) > 1e-9 then begin
        Printf.printf "FAIL: shed rate at %dx is %.4f, admission policy expects %.4f\n" f rate
          (expected f);
        exit 1
      end)
    [ (1, shed_1x); (4, shed_4x); (16, shed_16x) ];
  let drift_limit = 0.02 in
  match committed with
  | None -> Printf.printf "  (no committed BENCH_robust.json baseline; drift gate skipped)\n"
  | Some baseline ->
    let drift = Float.abs (shed_16x -. baseline) in
    Printf.printf "  drift vs committed baseline: %+.4f (baseline %.4f, limit %.2f)\n"
      (shed_16x -. baseline) baseline drift_limit;
    if drift > drift_limit then begin
      Printf.printf "FAIL: 16x shed rate drifted %.4f from the committed baseline\n" drift;
      exit 1
    end

(* -- BENCH_fastpath.json: what the fast-path/slow-path split buys — the
   in-process latency of a warm fast-path hit (p50/p99 over blocks of
   calls, gated hard at p50 < 15 µs), and sustained req/s through the
   event-loop socket server at 1/4/16 concurrent pipelined clients on a
   warm cache (gated hard at >= 100k req/s for the best concurrency).
   The replies themselves are cross-checked first: a fast-path reply must
   equal the slow-path reply for the same request modulo exactly the
   cached/path fields, so the numbers can never come from a route that
   answers something different. -- *)

let read_committed_fastpath_rate () =
  if not (Sys.file_exists "BENCH_fastpath.json") then None
  else
    let ic = open_in_bin "BENCH_fastpath.json" in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let flat = String.concat " " (String.split_on_char '\n' raw) in
    match Serve.Jsonl.of_string flat with
    | Ok j -> Serve.Jsonl.num_member "warm_reqs_per_s_best" j
    | Error _ -> None

(* Replace the single occurrence of [sub] in [s] with [by]; None when
   absent. *)
let subst_once s sub by =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  Option.map (fun i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)) (go 0)

let run_fastpath_report () =
  let committed = read_committed_fastpath_rate () in
  let models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
    let predictor = Clara.Predictor.train ~epochs:1 ds in
    let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
    { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }
  in
  (* max_pending must cover a full round of every client's pipelined
     block (16 clients x depth 200) or the rates would count overload
     errors instead of served requests *)
  let server = Serve.Server.create ~cache_capacity:16 ~max_pending:8192 models in
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"b"}|} in
  let fresh = Serve.Server.handle_request server warm_line in
  (* correctness cross-check before any timing: byte equality modulo the
     cached/path markers *)
  let fast = Serve.Server.handle_request server warm_line in
  let slow_hit =
    (* the escaped member pushes the same request down the slow path *)
    Serve.Server.handle_request server
      {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"b","x":"a\\b"}|}
  in
  let fast_marker = {|"cached":true,"path":"fast"|} in
  (match subst_once fast fast_marker {|"cached":true,"path":"slow"|} with
  | Some normalized when normalized = slow_hit -> ()
  | _ ->
    Printf.printf "FAIL: fast-path reply is not byte-equal to the slow-path reply\n";
    Printf.printf "  fast: %s\n  slow: %s\n" fast slow_hit;
    exit 1);
  (match subst_once fast fast_marker {|"cached":false,"path":"slow"|} with
  | Some normalized when normalized = fresh -> ()
  | _ ->
    Printf.printf "FAIL: fast-path reply is not byte-equal to the install reply\n";
    exit 1);
  (* in-process fast-path latency: blocks of calls bound the 1 µs clock
     granularity; keep the per-request time of each block *)
  let block = 64 and n_blocks = 300 in
  let samples = Array.make n_blocks 0.0 in
  for b = 0 to n_blocks - 1 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to block do
      ignore (Serve.Server.handle_request server warm_line)
    done;
    samples.(b) <- (Unix.gettimeofday () -. t0) /. float_of_int block *. 1e6
  done;
  Array.sort compare samples;
  let p50_us = percentile samples 50.0 and p99_us = percentile samples 99.0 in
  (* sustained throughput through the socket server: pipelined blocks on
     warm cache, counting reply newlines *)
  let path = Filename.temp_file "clara_bench_fastpath" ".sock" in
  Sys.remove path;
  let srv = Domain.spawn (fun () -> Serve.Server.run server ~socket_path:path) in
  let connect_with_retry () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec go attempts =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
        Unix.sleepf 0.02;
        go (attempts - 1)
    in
    go 200
  in
  let pipeline_depth = 200 in
  let request_block =
    String.concat ""
      (List.init pipeline_depth (fun i ->
           Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} i ^ "\n"))
  in
  let client_loop dur =
    let fd = connect_with_retry () in
    let buf = Bytes.create 65536 in
    let count = ref 0 in
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < dur do
      let len = String.length request_block in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring fd request_block !off (len - !off)
      done;
      let replies = ref 0 in
      while !replies < pipeline_depth do
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then failwith "fastpath bench: server closed mid-block";
        for i = 0 to n - 1 do
          if Bytes.get buf i = '\n' then incr replies
        done
      done;
      count := !count + pipeline_depth
    done;
    Unix.close fd;
    !count
  in
  let throughput concurrency =
    let dur = 0.6 in
    let t0 = Unix.gettimeofday () in
    let clients = List.init concurrency (fun _ -> Domain.spawn (fun () -> client_loop dur)) in
    let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 clients in
    float_of_int total /. (Unix.gettimeofday () -. t0)
  in
  let rate_1 = throughput 1 in
  let rate_4 = throughput 4 in
  let rate_16 = throughput 16 in
  (* stop the server through the front door *)
  let fd = connect_with_retry () in
  let bye = {|{"cmd":"shutdown"}|} ^ "\n" in
  ignore (Unix.write_substring fd bye 0 (String.length bye));
  ignore (Unix.read fd (Bytes.create 256) 0 256);
  Unix.close fd;
  Domain.join srv;
  let best = Float.max rate_1 (Float.max rate_4 rate_16) in
  let oc = open_out "BENCH_fastpath.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-fastpath-bench/1\",\n\
    \  \"fast_hit_p50_us\": %.3f,\n\
    \  \"fast_hit_p99_us\": %.3f,\n\
    \  \"pipeline_depth\": %d,\n\
    \  \"warm_reqs_per_s_1c\": %.0f,\n\
    \  \"warm_reqs_per_s_4c\": %.0f,\n\
    \  \"warm_reqs_per_s_16c\": %.0f,\n\
    \  \"warm_reqs_per_s_best\": %.0f\n\
     }\n"
    p50_us p99_us pipeline_depth rate_1 rate_4 rate_16 best;
  close_out oc;
  Printf.printf "Fast-path report (also written to BENCH_fastpath.json):\n";
  Printf.printf "  warm fast-path hit (in-process)   p50 %8.3f us   p99 %8.3f us\n" p50_us p99_us;
  Printf.printf
    "  sustained warm req/s (pipelined x%d)   1c %9.0f   4c %9.0f   16c %9.0f\n"
    pipeline_depth rate_1 rate_4 rate_16;
  let failed = ref false in
  if p50_us >= 15.0 then begin
    Printf.printf "FAIL: warm fast-path p50 %.3f us breaches the 15 us gate\n" p50_us;
    failed := true
  end;
  if best < 100_000.0 then begin
    Printf.printf "FAIL: best sustained rate %.0f req/s under the 100k req/s gate\n" best;
    failed := true
  end;
  (match committed with
  | None -> Printf.printf "  (no committed BENCH_fastpath.json baseline; drift gate skipped)\n"
  | Some baseline ->
    Printf.printf "  best vs committed baseline: %.0f / %.0f req/s\n" best baseline;
    if best < 0.4 *. baseline then begin
      Printf.printf "FAIL: best rate fell below 40%% of the committed baseline\n";
      failed := true
    end);
  if !failed then exit 1

(* -- BENCH_quality.json: what shadow evaluation costs and guarantees —
   the warm fast-path hit latency with shadowing disabled must stay
   inside the 15 µs BENCH_fastpath envelope (rate 0 is one float compare
   on the hit path), the rate-1.0 latency is reported for context, and a
   synthetic 1.4x nicsim memory-profile shift must trip the per-NF drift
   detector in a deterministic number of shadow samples.  Shadow
   selection, evaluation order, and the detectors are all deterministic,
   so the detection latency is gated by exact match against the
   committed baseline, not a tolerance band. -- *)

let read_committed_drift_samples () =
  if not (Sys.file_exists "BENCH_quality.json") then None
  else
    let ic = open_in_bin "BENCH_quality.json" in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let flat = String.concat " " (String.split_on_char '\n' raw) in
    match Serve.Jsonl.of_string flat with
    | Ok j -> Serve.Jsonl.num_member "drift_detect_samples" j
    | Error _ -> None

let run_quality_report () =
  let committed = read_committed_drift_samples () in
  let models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
    let predictor = Clara.Predictor.train ~epochs:1 ds in
    let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
    { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }
  in
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} in
  (* warm fast-path hit latency at a given shadow rate (blocks of calls
     bound the 1 µs clock granularity, same method as the fastpath gate) *)
  let hit_p50 ~shadow_rate =
    let server = Serve.Server.create ~cache_capacity:16 ~shadow_rate models in
    ignore (Serve.Server.handle_request server warm_line);
    let block = 64 and n_blocks = 300 in
    let samples = Array.make n_blocks 0.0 in
    for b = 0 to n_blocks - 1 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to block do
        ignore (Serve.Server.handle_request server warm_line)
      done;
      samples.(b) <- (Unix.gettimeofday () -. t0) /. float_of_int block *. 1e6
    done;
    Array.sort compare samples;
    percentile samples 50.0
  in
  let p50_off_us = hit_p50 ~shadow_rate:0.0 in
  let p50_shadow_us = hit_p50 ~shadow_rate:1.0 in
  (* drift scenario: warm an NF whose memory prediction matches the
     unperturbed simulator exactly, shift the simulated memory profile by
     1.4x, and count shadow samples until the detector latches *)
  Nicsim.Perturb.reset ();
  let detect_samples, control_quiet =
    Fun.protect ~finally:Nicsim.Perturb.reset @@ fun () ->
    let server = Serve.Server.create ~cache_capacity:16 ~shadow_rate:1.0 models in
    let q = Serve.Server.quality server in
    let send i =
      ignore
        (Serve.Server.handle_request server
           (Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"webtcp"}|} i))
    in
    for i = 1 to 24 do send i done;
    Serve.Server.drain_quality server;
    if Serve.Quality.drift_active q "webtcp/memory" then begin
      Printf.printf "FAIL: memory drift detector fired before the perturbation\n";
      exit 1
    end;
    Nicsim.Perturb.set ~memory_scale:1.4 ();
    let budget = ref 0 in
    while (not (Serve.Quality.drift_active q "webtcp/memory")) && !budget < 64 do
      incr budget;
      send (24 + !budget)
    done;
    (* the unshifted compute-error stream must have stayed quiet *)
    (!budget, not (Serve.Quality.drift_active q "webtcp"))
  in
  let oc = open_out "BENCH_quality.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-quality-bench/1\",\n\
    \  \"fast_hit_p50_us_shadow_off\": %.3f,\n\
    \  \"fast_hit_p50_us_shadow_full\": %.3f,\n\
    \  \"drift_nf\": \"webtcp\",\n\
    \  \"drift_detector\": \"memory\",\n\
    \  \"drift_memory_scale\": 1.4,\n\
    \  \"drift_warmup_samples\": 24,\n\
    \  \"drift_detect_samples\": %d\n\
     }\n"
    p50_off_us p50_shadow_us detect_samples;
  close_out oc;
  Printf.printf "Prediction-quality report (also written to BENCH_quality.json):\n";
  Printf.printf "  warm fast-path hit p50   shadow off %8.3f us   shadow 1.0 %8.3f us\n"
    p50_off_us p50_shadow_us;
  Printf.printf "  1.4x memory-profile shift detected after %d shadow samples\n" detect_samples;
  let failed = ref false in
  if p50_off_us >= 15.0 then begin
    Printf.printf "FAIL: shadow-off warm hit p50 %.3f us breaches the 15 us gate\n" p50_off_us;
    failed := true
  end;
  if detect_samples >= 64 then begin
    Printf.printf "FAIL: drift not detected within the 64-sample budget\n";
    failed := true
  end;
  if not control_quiet then begin
    Printf.printf "FAIL: unshifted compute-error stream tripped its detector\n";
    failed := true
  end;
  (match committed with
  | None -> Printf.printf "  (no committed BENCH_quality.json baseline; drift gate skipped)\n"
  | Some baseline ->
    Printf.printf "  detection latency vs committed baseline: %d / %.0f samples\n"
      detect_samples baseline;
    if float_of_int detect_samples <> baseline then begin
      Printf.printf
        "FAIL: detection latency moved from the committed baseline (deterministic pipeline)\n";
      failed := true
    end);
  if !failed then exit 1

(* -- BENCH_flight.json: what always-on flight recording costs — the warm
   fast-path hit p50 with recording on must stay within 10% of recording
   off (the record is a clip check, one allocation and an O(1) ring write
   off the reply bytes already built), and the recording-off p50 must
   stay inside the 15 µs fastpath envelope — which also bounds the
   profiler-off cost of the Prof hook in Span.with_ at ~0 (one atomic
   load).  The profiler-on p50 is reported for context only: on a
   single-core host the ticker domain steals cycles from the serving
   loop, which is the profiler's documented cost model, not a
   regression.  Off/on blocks run interleaved so machine drift cancels
   out of the ratio. -- *)

let read_committed_flight_ratio () =
  if not (Sys.file_exists "BENCH_flight.json") then None
  else
    let ic = open_in_bin "BENCH_flight.json" in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let flat = String.concat " " (String.split_on_char '\n' raw) in
    match Serve.Jsonl.of_string flat with
    | Ok j -> Serve.Jsonl.num_member "flight_on_ratio" j
    | Error _ -> None

let run_flight_report () =
  let committed = read_committed_flight_ratio () in
  let models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
    let predictor = Clara.Predictor.train ~epochs:1 ds in
    let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
    { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }
  in
  (* the pinned trace_id keeps replies byte-comparable across servers
     (generated t-N ids draw from a process-global counter) *)
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"b"}|} in
  let server_off = Serve.Server.create ~cache_capacity:16 ~flight_capacity:0 models in
  let server_on = Serve.Server.create ~cache_capacity:16 ~flight_capacity:64 models in
  let reply_off = Serve.Server.handle_request server_off warm_line in
  let reply_on = Serve.Server.handle_request server_on warm_line in
  (* recording must never perturb the bytes on the wire *)
  let hit_off = Serve.Server.handle_request server_off warm_line in
  let hit_on = Serve.Server.handle_request server_on warm_line in
  if hit_off <> hit_on || reply_off <> reply_on then begin
    Printf.printf "FAIL: flight-on reply differs from flight-off reply\n";
    Printf.printf "  off: %s\n  on:  %s\n" hit_off hit_on;
    exit 1
  end;
  let block = 64 and n_blocks = 300 in
  let time_block server =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to block do
      ignore (Serve.Server.handle_request server warm_line)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int block *. 1e6
  in
  let s_off = Array.make n_blocks 0.0 and s_on = Array.make n_blocks 0.0 in
  for b = 0 to n_blocks - 1 do
    s_off.(b) <- time_block server_off;
    s_on.(b) <- time_block server_on
  done;
  Array.sort compare s_off;
  Array.sort compare s_on;
  let p50_off = percentile s_off 50.0 and p50_on = percentile s_on 50.0 in
  if Obs.Flight.recorded (Serve.Server.flight server_on) = 0 then begin
    Printf.printf "FAIL: the flight-on server recorded nothing while being timed\n";
    exit 1
  end;
  (* profiler-on context number: same loop with the ticker running *)
  let prof_hz = 200.0 in
  Obs.Prof.start ~hz:prof_hz ();
  let s_prof = Array.make n_blocks 0.0 in
  for b = 0 to n_blocks - 1 do
    s_prof.(b) <- time_block server_off
  done;
  Obs.Prof.stop ();
  Obs.Prof.reset ();
  Array.sort compare s_prof;
  let p50_prof = percentile s_prof 50.0 in
  let ratio = p50_on /. Float.max 1e-9 p50_off in
  let oc = open_out "BENCH_flight.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-flight-bench/1\",\n\
    \  \"flight_off_p50_us\": %.3f,\n\
    \  \"flight_on_p50_us\": %.3f,\n\
    \  \"flight_on_ratio\": %.3f,\n\
    \  \"prof_hz\": %.0f,\n\
    \  \"prof_on_p50_us\": %.3f\n\
     }\n"
    p50_off p50_on ratio prof_hz p50_prof;
  close_out oc;
  Printf.printf "Flight-recorder report (also written to BENCH_flight.json):\n";
  Printf.printf
    "  warm fast-path hit p50   flight off %8.3f us   flight on %8.3f us   (%.3fx)\n" p50_off
    p50_on ratio;
  Printf.printf "  with profiler at %.0f Hz  %8.3f us   (context only, not gated)\n" prof_hz
    p50_prof;
  let failed = ref false in
  if p50_off >= 15.0 then begin
    Printf.printf "FAIL: flight-off warm hit p50 %.3f us breaches the 15 us gate\n" p50_off;
    failed := true
  end;
  (* 10% relative budget with a 0.2 µs absolute grace: at ~2 µs a p50,
     one clock quantum of noise is already 5% *)
  if p50_on > (1.10 *. p50_off) +. 0.2 then begin
    Printf.printf "FAIL: flight-on p50 %.3f us exceeds 1.10x off (%.3f us) + 0.2 us\n" p50_on
      p50_off;
    failed := true
  end;
  (match committed with
  | None -> Printf.printf "  (no committed BENCH_flight.json baseline; drift gate skipped)\n"
  | Some baseline ->
    Printf.printf "  ratio vs committed baseline: %.3f / %.3f\n" ratio baseline;
    if ratio > baseline +. 0.15 then begin
      Printf.printf "FAIL: flight-on ratio drifted %.3f above the committed baseline\n"
        (ratio -. baseline);
      failed := true
    end);
  if !failed then exit 1;
  Printf.printf "PASS: flight recording stays inside the fast-path budget\n"

(* -- BENCH_router.json: what the scale-out front costs and buys — the
   p50 of a warm analyze round trip direct to one worker vs through the
   router (the routed overhead, drift-gated against the committed
   baseline), and sustained pipelined throughput through a 1-worker vs a
   3-worker topology.  The scale-out gate (>= 1.8x) only fires on a box
   with at least as many cores as workers; below that the topologies
   time-slice one core and the run is marked report-only "degraded". -- *)

let router_workers = 3

let read_committed_routed_p50 () =
  if not (Sys.file_exists "BENCH_router.json") then None
  else
    let ic = open_in_bin "BENCH_router.json" in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let flat = String.concat " " (String.split_on_char '\n' raw) in
    match Serve.Jsonl.of_string flat with
    | Ok j -> Serve.Jsonl.num_member "routed_p50_us" j
    | Error _ -> None

let run_router_report () =
  let committed = read_committed_routed_p50 () in
  let cores = Domain.recommended_domain_count () in
  let models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
    let predictor = Clara.Predictor.train ~epochs:1 ds in
    let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
    { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }
  in
  let bundle = Filename.temp_file "clara_bench_router" ".d" in
  Sys.remove bundle;
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir:bundle manifest models;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists bundle then begin
        Array.iter (fun f -> Sys.remove (Filename.concat bundle f)) (Sys.readdir bundle);
        Unix.rmdir bundle
      end)
  @@ fun () ->
  let sock k = Printf.sprintf "%s/clara_bench_rt_%d_w%d.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ()) k in
  let connect_with_retry path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec go attempts =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
        Unix.sleepf 0.02;
        go (attempts - 1)
    in
    go 200
  in
  let really_write fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done
  in
  let read_replies fd buf n =
    let replies = ref 0 in
    while !replies < n do
      let k = Unix.read fd buf 0 (Bytes.length buf) in
      if k = 0 then failwith "router bench: peer closed mid-block";
      for i = 0 to k - 1 do
        if Bytes.get buf i = '\n' then incr replies
      done
    done
  in
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} ^ "\n" in
  (* sequential round-trip p50 over a connected socket, in blocks (the
     1 µs clock is too coarse for single round trips) *)
  let rtt_p50 path =
    let fd = connect_with_retry path in
    let buf = Bytes.create 65536 in
    for _ = 1 to 32 do
      really_write fd warm_line;
      read_replies fd buf 1
    done;
    let block = 16 and n_blocks = 200 in
    let samples = Array.make n_blocks 0.0 in
    for b = 0 to n_blocks - 1 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to block do
        really_write fd warm_line;
        read_replies fd buf 1
      done;
      samples.(b) <- (Unix.gettimeofday () -. t0) /. float_of_int block *. 1e6
    done;
    Unix.close fd;
    Array.sort compare samples;
    percentile samples 50.0
  in
  (* pipelined throughput: distinct analyze keys so a multi-worker ring
     actually spreads the load *)
  let key_block =
    let names =
      let all = Serve.Server.corpus_names () in
      List.filteri (fun i _ -> i < 8) all
    in
    String.concat ""
      (List.concat_map
         (fun w ->
           List.mapi
             (fun i nf ->
               Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"}|} i nf w
               ^ "\n")
             names)
         [ "mixed"; "small" ])
  in
  let block_lines =
    List.length (String.split_on_char '\n' key_block) - 1
  in
  let throughput path ~concurrency ~dur =
    (* warm every key on its pinned worker before timing *)
    let fd = connect_with_retry path in
    let buf = Bytes.create 65536 in
    really_write fd key_block;
    read_replies fd buf block_lines;
    Unix.close fd;
    let client () =
      let fd = connect_with_retry path in
      let buf = Bytes.create 65536 in
      let count = ref 0 in
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < dur do
        really_write fd key_block;
        read_replies fd buf block_lines;
        count := !count + block_lines
      done;
      Unix.close fd;
      !count
    in
    let t0 = Unix.gettimeofday () in
    let clients = List.init concurrency (fun _ -> Domain.spawn client) in
    let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 clients in
    float_of_int total /. (Unix.gettimeofday () -. t0)
  in
  (* one topology: spawn n workers, front them, measure, shut down
     through the front door (the router broadcasts shutdown) *)
  let with_topology n f =
    let fleet =
      List.init n (fun k ->
          Router.Spawn.spawn ~name:(Printf.sprintf "w%d" k) ~socket_path:(sock k) ~bundle ())
    in
    List.iter
      (fun sp ->
        if not (Router.Spawn.wait_ready sp) then begin
          Printf.printf "FAIL: bench worker %s never came up\n" sp.Router.Spawn.sp_name;
          exit 1
        end)
      fleet;
    let front =
      Router.Front.create ~forward_timeout_s:10.0
        ~workers:(List.map (fun sp -> (sp.Router.Spawn.sp_name, sp.Router.Spawn.sp_socket)) fleet)
        ()
    in
    let path = Filename.temp_file "clara_bench_router" ".sock" in
    Sys.remove path;
    let rtr = Domain.spawn (fun () -> Router.Front.run front ~socket_path:path) in
    let out = f path in
    let fd = connect_with_retry path in
    let bye = {|{"cmd":"shutdown"}|} ^ "\n" in
    really_write fd bye;
    ignore (Unix.read fd (Bytes.create 256) 0 256);
    Unix.close fd;
    Domain.join rtr;
    List.iter Router.Spawn.wait fleet;
    List.iter (fun sp -> try Sys.remove sp.Router.Spawn.sp_socket with Sys_error _ -> ()) fleet;
    out
  in
  (* direct baseline: one worker, no router in the path *)
  let lone =
    Router.Spawn.spawn ~name:"direct" ~socket_path:(sock 9) ~bundle ()
  in
  if not (Router.Spawn.wait_ready lone) then begin
    Printf.printf "FAIL: bench worker direct never came up\n";
    exit 1
  end;
  let direct_p50 = rtt_p50 lone.Router.Spawn.sp_socket in
  Router.Spawn.terminate lone;
  Router.Spawn.wait lone;
  (try Sys.remove lone.Router.Spawn.sp_socket with Sys_error _ -> ());
  let dur = 0.6 in
  let rate_1w = with_topology 1 (fun path -> throughput path ~concurrency:4 ~dur) in
  let routed_p50, rate_3w =
    with_topology router_workers (fun path ->
        let p50 = rtt_p50 path in
        (p50, throughput path ~concurrency:4 ~dur))
  in
  let overhead = routed_p50 -. direct_p50 in
  let scale = rate_3w /. Float.max 1.0 rate_1w in
  let degraded = cores < router_workers in
  let oc = open_out "BENCH_router.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"clara-router-bench/1\",\n\
    \  \"cores\": %d,\n\
    \  \"workers\": %d,\n\
    \  \"direct_p50_us\": %.3f,\n\
    \  \"routed_p50_us\": %.3f,\n\
    \  \"routed_overhead_us\": %.3f,\n\
    \  \"block_lines\": %d,\n\
    \  \"reqs_per_s_1w\": %.0f,\n\
    \  \"reqs_per_s_3w\": %.0f,\n\
    \  \"scaleout_x\": %.3f%s\n\
     }\n"
    cores router_workers direct_p50 routed_p50 overhead block_lines rate_1w rate_3w scale
    (if degraded then ",\n  \"degraded\": true" else "");
  close_out oc;
  Printf.printf "Router report (also written to BENCH_router.json):\n";
  Printf.printf "  warm analyze round trip   direct %8.3f us   routed %8.3f us   (+%.3f us)\n"
    direct_p50 routed_p50 overhead;
  Printf.printf
    "  sustained warm req/s (x%d keys, 4 clients)   1 worker %9.0f   %d workers %9.0f   \
     (%.2fx)\n"
    block_lines rate_1w router_workers rate_3w scale;
  let failed = ref false in
  if routed_p50 >= 2000.0 then begin
    Printf.printf "FAIL: routed warm p50 %.3f us breaches the 2 ms sanity gate\n" routed_p50;
    failed := true
  end;
  if degraded then
    Printf.printf
      "  (%d core(s) < %d workers: topologies time-slice one core, so the %.1fx scale-out \
       gate is reported as \"degraded\", not enforced)\n"
      cores router_workers 1.8
  else if scale < 1.8 then begin
    Printf.printf "FAIL: %d-worker throughput only %.2fx a single worker (gate 1.8x)\n"
      router_workers scale;
    failed := true
  end;
  (match committed with
  | None -> Printf.printf "  (no committed BENCH_router.json baseline; drift gate skipped)\n"
  | Some baseline ->
    Printf.printf "  routed p50 vs committed baseline: %.3f / %.3f us\n" routed_p50 baseline;
    if routed_p50 > 3.0 *. baseline then begin
      Printf.printf "FAIL: routed p50 drifted above 3x the committed baseline\n";
      failed := true
    end);
  if !failed then exit 1;
  Printf.printf "PASS: routed overhead and scale-out inside budget\n"

(* Peel `--trace FILE` / `--metrics FILE` off argv (any position), enable
   span recording when tracing, and flush both files when the run ends. *)
let with_obs_flags args f =
  let trace = ref None and metrics = ref None in
  let rec strip = function
    | "--trace" :: file :: rest ->
      trace := Some file;
      strip rest
    | "--metrics" :: file :: rest ->
      metrics := Some file;
      strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let rest = strip args in
  if !trace <> None then Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter Obs.Span.write_chrome !trace;
      Option.iter Obs.Metrics.write_file !metrics)
    (fun () -> f rest)

let () =
  (* in a re-exec'd router-bench worker child this serves and exits *)
  Router.Spawn.worker_main_if_requested ();
  with_obs_flags (List.tl (Array.to_list Sys.argv)) @@ fun args ->
  match "main.exe" :: args with
  | [] | _ :: [] -> run_all ()
  | _ :: [ "list" ] -> usage ()
  | _ :: [ "micro" ] -> run_micro ()
  | _ :: [ "parallel" ] -> run_parallel_report ()
  | _ :: [ "serve" ] -> run_serve_report ()
  | _ :: [ "obs" ] -> run_obs_report ()
  | _ :: [ "robust" ] -> run_robust_report ()
  | _ :: [ "fastpath" ] -> run_fastpath_report ()
  | _ :: [ "quality" ] -> run_quality_report ()
  | _ :: [ "flight" ] -> run_flight_report ()
  | _ :: [ "router" ] -> run_router_report ()
  | _ :: ids ->
    List.iter
      (fun id ->
        match Experiments.Registry.find id with
        | Some e -> e.Experiments.Registry.run ()
        | None ->
          Printf.printf "unknown experiment %s\n" id;
          usage ();
          exit 1)
      ids
