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
    - `bench/main.exe <gate>`: measure one system property, write
      BENCH_<gate>.json, and exit nonzero when any of its checks fails.
      Each gate is one entry of [gates]:
      - `parallel`: compute-core speedups over the retained references at
        CLARA_JOBS 1/2/4, with per-level floors;
      - `serve`: cold train+analyze vs warm bundle load vs a cached query
        (report only);
      - `obs`: Obs.Span overhead, bare vs disabled vs enabled spans;
        disabled overhead at most 5%;
      - `robust`: warm request latency through the retrying client and the
        deterministic load-shedding rate at 1x/4x/16x overload;
      - `fastpath`: warm fast-path hit p50/p99 and pipelined req/s at
        1/4/16 clients;
      - `quality`: shadow-off fast-path p50 and the number of shadow
        samples until a synthetic nicsim profile shift is detected;
      - `flight`: warm fast-path hit p50 with flight recording on vs off;
      - `router`: warm round trip direct to one worker vs through the
        router, and 1-worker vs 3-worker pipelined throughput.
      Drift checks compare against the committed BENCH_<gate>.json in the
      working directory (the `@runtest-<gate>` aliases copy it in).
    - `bench/main.exe list`: list gates and experiment ids.

    CLARA_FULL=1 enlarges training sets and sweeps. *)

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

(* -- the gate harness --

   Every bench verb is one entry of [gates].  Its [run] measures and
   returns the typed fields of BENCH_<verb>.json together with its checks;
   one writer renders every file, one printer echoes the fields, and one
   evaluator decides every check.  Drift checks compare against the
   committed BENCH_<verb>.json, read before [run] overwrites it. *)

type field =
  | Int of int
  | Float of int * float  (* digits after the point, value *)
  | Str of string
  | Bool of bool
  | Ints of int list
  | Objs of (string * field) list list  (* one object per line *)

type limit =
  | Lt of float
  | Le of float
  | Ge of float
  | Within of float * float  (* centre, tolerance *)

type check =
  | Check of string * float * limit  (* what, measured value, limit *)
  | Same of string * string * string  (* what, expected bytes, actual bytes *)
  | Drift of string * float * (float -> limit)
      (* committed key, measured value, limit from the committed value *)

type gate = { verb : string; title : string; run : unit -> (string * field) list * check list }

let rec render indent = function
  | Int n -> string_of_int n
  | Float (digits, x) -> Printf.sprintf "%.*f" digits x
  | Str s -> "\"" ^ s ^ "\""
  | Bool b -> string_of_bool b
  | Ints ns -> "[" ^ String.concat ", " (List.map string_of_int ns) ^ "]"
  | Objs objs ->
    let item o = String.make (indent + 2) ' ' ^ "{" ^ members (indent + 2) ", " o ^ "}" in
    "[\n" ^ String.concat ",\n" (List.map item objs) ^ "\n" ^ String.make indent ' ' ^ "]"

and members indent sep fields =
  String.concat sep (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (render indent v)) fields)

let holds v = function
  | Lt x -> v < x
  | Le x -> v <= x
  | Ge x -> v >= x
  | Within (x, tol) -> Float.abs (v -. x) <= tol

let describe = function
  | Lt x -> Printf.sprintf "< %g" x
  | Le x -> Printf.sprintf "<= %g" x
  | Ge x -> Printf.sprintf ">= %g" x
  | Within (x, tol) -> Printf.sprintf "= %g +- %g" x tol

(* [None] only when the file is absent, i.e. the bench runs outside the
   repo root: a committed file that does not parse is an [Error], so its
   drift checks fail rather than skip. *)
let read_committed file =
  if not (Sys.file_exists file) then None
  else
    let raw = In_channel.with_open_bin file In_channel.input_all in
    (* the file is pretty-printed; Jsonl wants one line *)
    Some (Serve.Jsonl.of_string (String.map (fun c -> if c = '\n' then ' ' else c) raw))

let verdict ~file committed = function
  | Check (what, v, lim) -> (holds v lim, Printf.sprintf "%s = %g (gate %s)" what v (describe lim))
  | Same (what, want, got) ->
    if want = got then (true, what)
    else (false, Printf.sprintf "%s\n  expected: %s\n  actual:   %s" what want got)
  | Drift (key, v, lim) -> (
    match committed with
    | None -> (true, Printf.sprintf "no committed %s; drift gate on %s skipped" file key)
    | Some (Error e) -> (false, Printf.sprintf "committed %s does not parse: %s" file e)
    | Some (Ok doc) -> (
      match Serve.Jsonl.num_member key doc with
      | None -> (false, Printf.sprintf "committed %s has no numeric \"%s\"" file key)
      | Some b ->
        let lim = lim b in
        ( holds v lim,
          Printf.sprintf "drift vs committed baseline: %s = %g, committed %g (gate %s)" key v b
            (describe lim) )))

let run_gate g =
  let file = Printf.sprintf "BENCH_%s.json" g.verb in
  let committed = read_committed file in
  let fields, checks = g.run () in
  (* renamed into place: the copy the `@runtest-*` aliases make of the
     committed file is read-only *)
  Out_channel.with_open_bin (file ^ ".tmp") (fun oc ->
      output_string oc ("{\n  " ^ members 2 ",\n  " fields ^ "\n}\n"));
  Sys.rename (file ^ ".tmp") file;
  Printf.printf "%s (also written to %s):\n" g.title file;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k (render 2 v)) fields;
  let failed =
    List.fold_left
      (fun failed c ->
        let ok, text = verdict ~file committed c in
        print_endline ((if ok then "  ok    " else "FAIL: ") ^ text);
        if ok then failed else failed + 1)
      0 checks
  in
  if failed > 0 then exit 1;
  if checks <> [] then Printf.printf "PASS: all %d checks hold\n" (List.length checks)

(* -- shared measurement helpers -- *)

let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) idx))

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* The small model set the socket-serving gates run on. *)
let quick_models () =
  let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
  let predictor = Clara.Predictor.train ~epochs:1 ds in
  let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
  { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }

(* Per-call µs of each of [fs] over [n_blocks] blocks of [block] calls,
   sorted.  A block bounds the 1 µs clock granularity; the blocks of the
   [fs] run interleaved, so machine drift cancels out of their ratio. *)
let time_blocks ?(block = 64) ?(n_blocks = 300) fs =
  let samples = Array.map (fun _ -> Array.make n_blocks 0.0) fs in
  for b = 0 to n_blocks - 1 do
    Array.iteri
      (fun k f ->
        let dt, () =
          timed (fun () ->
              for _ = 1 to block do
                f ()
              done)
        in
        samples.(k).(b) <- dt /. float_of_int block *. 1e6)
      fs
  done;
  Array.iter (Array.sort compare) samples;
  samples

let with_temp_bundle models f =
  let dir = Filename.temp_file "clara_bench" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
  @@ fun () ->
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir manifest models;
  f dir

(* Serve [run] on a fresh socket in its own domain for the duration of
   [f path]; [drain] stops it on every path out. *)
let serving run drain f =
  let path = Filename.temp_file "clara_bench" ".sock" in
  Sys.remove path;
  let d = Domain.spawn (fun () -> run ~socket_path:path) in
  Fun.protect ~finally:(fun () -> drain (); Domain.join d) (fun () -> f path)

let with_conn path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let rec connect attempts =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
      Unix.sleepf 0.02;
      connect (attempts - 1)
  in
  connect 200;
  f fd (Bytes.create 65536)

(* Write a block of [n] request lines and read until [n] reply newlines
   are back. *)
let exchange fd buf lines n =
  Serve.Lineio.write_all fd lines;
  let replies = ref 0 in
  while !replies < n do
    let k = Unix.read fd buf 0 (Bytes.length buf) in
    if k = 0 then failwith "bench: peer closed mid-block";
    for i = 0 to k - 1 do
      if Bytes.get buf i = '\n' then incr replies
    done
  done

(* Sustained req/s with [concurrency] client domains, each keeping the
   [lines] block in flight for [dur] s; one untimed block first warms
   every key. *)
let count_lines s = List.length (String.split_on_char '\n' s) - 1

let pipelined_rate path ~lines ~concurrency ~dur =
  let n = count_lines lines in
  with_conn path (fun fd buf -> exchange fd buf lines n);
  let client () =
    with_conn path @@ fun fd buf ->
    let count = ref 0 in
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < dur do
      exchange fd buf lines n;
      count := !count + n
    done;
    !count
  in
  let elapsed, total =
    timed (fun () ->
        List.init concurrency (fun _ -> Domain.spawn client)
        |> List.fold_left (fun acc d -> acc + Domain.join d) 0)
  in
  float_of_int total /. elapsed

(* -- parallel: speedup of the optimized compute core over the retained
   references (Mlkit.Naive, *_reference), at jobs in {1, 2, 4}, with hard
   floors.

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

let parallel_bench () =
  let saved = Util.Pool.jobs () in
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
  let floors =
    List.concat_map
      (fun (name, levels) ->
        List.filter_map
          (fun (j, _, bf, br) ->
            Option.map
              (fun floor -> (Printf.sprintf "%s speedup at jobs=%d" name j, speedup bf br, Ge floor))
              (parallel_floor ~name ~jobs:j))
          levels)
      rows
  in
  let level name (j, eff, bf, br) =
    [ ("jobs", Int j); ("effective_jobs", Int eff); ("fast_s", Float (6, bf));
      ("ref_s", Float (6, br)); ("speedup", Float (3, speedup bf br)) ]
    @ (match parallel_floor ~name ~jobs:j with Some f -> [ ("floor", Float (1, f)) ] | None -> [])
    (* a clamped level measured the rewrite, not domain parallelism: mark
       it so readers don't compare the number across hosts *)
    @ if eff < j then [ ("degraded", Bool true) ] else []
  in
  let kernel (name, levels) =
    [ ("name", Str name);
      ("reference_s", Float (6, match levels with (_, _, _, br) :: _ -> br | [] -> 0.0));
      ("levels", Objs (List.map (level name) levels)) ]
  in
  ( [ ("schema", Str "clara-parallel-bench/2");
      ("cores", Int (Domain.recommended_domain_count ()));
      ("jobs_levels", Ints parallel_jobs_levels);
      ("pass", Bool (List.for_all (fun (_, v, lim) -> holds v lim) floors));
      ("kernels", Objs (List.map kernel rows)) ],
    List.map (fun (what, v, lim) -> Check (what, v, lim)) floors )

(* -- serve: why the artifact store exists — cold train+analyze vs
   warm-starting from a persisted bundle vs a cache hit in the insight
   server, for the same (NF, workload) query.  Report only. -- *)

let serve_bench () =
  let nf = "cmsketch" in
  let elt = Nf_lang.Corpus.find nf in
  let spec = Serve.Server.mixed_spec in
  let cold, models =
    timed (fun () ->
        let models = Clara.Pipeline.train ~quick:true ~with_colocation:true () in
        ignore (Clara.Pipeline.report models elt spec);
        models)
  in
  let warm, loaded =
    with_temp_bundle models @@ fun dir ->
    timed (fun () ->
        match Persist.Bundle.load ~dir with
        | Ok b ->
          ignore (Clara.Pipeline.report b.Persist.Bundle.models elt spec);
          b.Persist.Bundle.models
        | Error e -> failwith (Persist.Wire.error_to_string e))
  in
  let server = Serve.Server.create loaded in
  let query = Printf.sprintf "{\"id\":1,\"cmd\":\"analyze\",\"nf\":\"%s\",\"workload\":\"mixed\"}" nf in
  ignore (Serve.Server.handle_request server query);
  let cached, _ = timed (fun () -> Serve.Server.handle_request server query) in
  let speedup over = cold /. Float.max 1e-9 over in
  ( [ ("schema", Str "clara-serve-bench/1"); ("nf", Str nf); ("workload", Str "mixed");
      ("cold_train_s", Float (6, cold)); ("warm_load_s", Float (6, warm));
      ("cached_query_s", Float (6, cached)); ("warm_speedup", Float (1, speedup warm));
      ("cached_speedup", Float (1, speedup cached)) ],
    [] )

(* -- obs: what the span instrumentation costs — a bare kernel vs the
   same kernel under [Obs.Span.with_] with recording disabled (the
   always-compiled-in production configuration) vs enabled.  The disabled
   overhead is the number that matters: it is paid by every instrumented
   call in every untraced run, so the gate is on it. -- *)

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

let obs_bench () =
  let iters = 100_000 and reps = 5 in
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
  let disabled_pct = overhead_pct disabled in
  let limit_pct = 5.0 in
  ( [ ("schema", Str "clara-obs-bench/1"); ("iters", Int iters);
      ("bare_ns_per_call", Float (2, per_call_ns bare));
      ("disabled_ns_per_call", Float (2, per_call_ns disabled));
      ("enabled_ns_per_call", Float (2, per_call_ns enabled));
      ("disabled_overhead_pct", Float (2, disabled_pct));
      ("enabled_overhead_pct", Float (2, overhead_pct enabled));
      ("disabled_limit_pct", Float (1, limit_pct));
      ("pass", Bool (holds disabled_pct (Le limit_pct))) ],
    [ Check ("disabled-span overhead %", disabled_pct, Le limit_pct);
      (* more than 10 points from the committed figure means the disabled
         path regressed or the baseline went stale *)
      Drift ("disabled_overhead_pct", disabled_pct, fun b -> Within (b, 10.0)) ] )

(* -- robust: what the hardening layer costs and guarantees — request
   latency through the retrying client against a live socket server
   (p50/p99), and the load-shedding rate at 1x/4x/16x overload.
   Shedding is deterministic: a batch of [f * max_pending] lines admits
   exactly [max_pending], so the rate is 1 - 1/f bit-for-bit; the drift
   gate on the 16x rate therefore catches any change to the admission
   policy, not measurement noise. -- *)

let robust_bench () =
  let models = quick_models () in
  (* latency: warm-cache analyze round trips through Serve.Client against
     the real socket server (connect is reused, ids are idempotent) *)
  let n_requests = 200 in
  let server = Serve.Server.create ~cache_capacity:16 models in
  ignore
    (Serve.Server.process_batch server [ {|{"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} ]);
  let lat =
    serving (Serve.Server.run server) (fun () -> Serve.Server.request_drain server) @@ fun path ->
    let client = Serve.Client.create ~timeout_s:10.0 ~retries:2 ~socket_path:path () in
    let analyze_fields =
      [ ("cmd", Serve.Jsonl.Str "analyze"); ("nf", Serve.Jsonl.Str "tcpack");
        ("workload", Serve.Jsonl.Str "mixed") ]
    in
    let lat =
      Array.init n_requests (fun _ ->
          let dt, () =
            timed (fun () ->
                match Serve.Client.request client analyze_fields with
                | Ok _ -> ()
                | Error e -> failwith ("robust bench query failed: " ^ Serve.Client.error_to_string e))
          in
          dt *. 1000.0)
    in
    Serve.Client.close client;
    lat
  in
  Array.sort compare lat;
  (* shedding: oversized batches straight through process_batch on a
     fresh server with a small admission bound *)
  let max_pending = 64 in
  let shed_rate factor =
    let s = Serve.Server.create ~cache_capacity:16 ~max_pending models in
    let total = factor * max_pending in
    let lines = List.init total (fun i -> Printf.sprintf {|{"id":%d,"cmd":"ping"}|} i) in
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
  let rates = List.map (fun f -> (f, shed_rate f)) [ 1; 4; 16 ] in
  let shed_16x = List.assoc 16 rates in
  ( [ ("schema", Str "clara-robust-bench/1"); ("requests", Int n_requests);
      ("latency_p50_ms", Float (3, percentile lat 50.0));
      ("latency_p99_ms", Float (3, percentile lat 99.0)); ("max_pending", Int max_pending) ]
    @ List.map (fun (f, rate) -> (Printf.sprintf "shed_rate_%dx" f, Float (4, rate))) rates,
    List.map
      (fun (f, rate) ->
        Check (Printf.sprintf "shed rate at %dx" f, rate, Within (1.0 -. (1.0 /. float_of_int f), 1e-9)))
      rates
    @ [ Drift ("shed_rate_16x", shed_16x, fun b -> Within (b, 0.02)) ] )

(* -- fastpath: what the fast-path/slow-path split buys — the in-process
   latency of a warm fast-path hit (p50/p99 over blocks of calls, gated
   at p50 < 15 µs), and sustained req/s through the event-loop socket
   server at 1/4/16 concurrent pipelined clients on a warm cache (gated
   at >= 100k req/s for the best concurrency).  The replies themselves
   are cross-checked too: a fast-path reply must equal the slow-path
   reply for the same request modulo exactly the cached/path fields, so
   a passing run never takes its numbers from a route that answers
   something different. -- *)

(* Replace the single occurrence of [sub] in [s] with [by]; None when
   absent. *)
let subst_once s sub by =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  Option.map (fun i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)) (go 0)

let fastpath_bench () =
  (* max_pending must cover a full round of every client's pipelined
     block (16 clients x depth 200) or the rates would count overload
     errors instead of served requests *)
  let server = Serve.Server.create ~cache_capacity:16 ~max_pending:8192 (quick_models ()) in
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"b"}|} in
  let fresh = Serve.Server.handle_request server warm_line in
  let fast = Serve.Server.handle_request server warm_line in
  let slow_hit =
    (* the escaped member pushes the same request down the slow path *)
    Serve.Server.handle_request server
      {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"b","x":"a\\b"}|}
  in
  let fast_marker = {|"cached":true,"path":"fast"|} in
  let as_slow ~cached =
    match subst_once fast fast_marker (Printf.sprintf {|"cached":%b,"path":"slow"|} cached) with
    | Some reply -> reply
    | None -> "no " ^ fast_marker ^ " in " ^ fast
  in
  let hits = (time_blocks [| (fun () -> ignore (Serve.Server.handle_request server warm_line)) |]).(0) in
  let p50_us = percentile hits 50.0 in
  let pipeline_depth = 200 in
  let lines =
    String.concat ""
      (List.init pipeline_depth (fun i ->
           Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} i ^ "\n"))
  in
  let rate_1, rate_4, rate_16 =
    serving (Serve.Server.run server) (fun () -> Serve.Server.request_drain server) @@ fun path ->
    let rate concurrency = pipelined_rate path ~lines ~concurrency ~dur:0.6 in
    let r1 = rate 1 in
    let r4 = rate 4 in
    (r1, r4, rate 16)
  in
  let best = Float.max rate_1 (Float.max rate_4 rate_16) in
  ( [ ("schema", Str "clara-fastpath-bench/1"); ("fast_hit_p50_us", Float (3, p50_us));
      ("fast_hit_p99_us", Float (3, percentile hits 99.0)); ("pipeline_depth", Int pipeline_depth);
      ("warm_reqs_per_s_1c", Float (0, rate_1)); ("warm_reqs_per_s_4c", Float (0, rate_4));
      ("warm_reqs_per_s_16c", Float (0, rate_16)); ("warm_reqs_per_s_best", Float (0, best)) ],
    [ Same ("fast-path reply byte-equal to the slow-path hit reply", slow_hit, as_slow ~cached:true);
      Same ("fast-path reply byte-equal to the install reply", fresh, as_slow ~cached:false);
      Check ("warm fast-path hit p50 us", p50_us, Lt 15.0);
      Check ("best sustained warm req/s", best, Ge 100_000.0);
      Drift ("warm_reqs_per_s_best", best, fun b -> Ge (0.4 *. b)) ] )

(* -- quality: what shadow evaluation costs and guarantees — the warm
   fast-path hit latency with shadowing disabled must stay inside the
   15 µs fastpath envelope (rate 0 is one float compare on the hit path),
   the rate-1.0 latency is reported for context, and a synthetic 1.4x
   nicsim memory-profile shift must trip the per-NF drift detector in a
   deterministic number of shadow samples.  Shadow selection, evaluation
   order, and the detectors are all deterministic, so the detection
   latency is gated by exact match against the committed baseline, not a
   tolerance band. -- *)

let quality_bench () =
  let models = quick_models () in
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} in
  let hit_p50 ~shadow_rate =
    let server = Serve.Server.create ~cache_capacity:16 ~shadow_rate models in
    let hit () = ignore (Serve.Server.handle_request server warm_line) in
    hit ();
    percentile (time_blocks [| hit |]).(0) 50.0
  in
  let p50_off_us = hit_p50 ~shadow_rate:0.0 in
  let p50_shadow_us = hit_p50 ~shadow_rate:1.0 in
  (* drift scenario: warm an NF whose memory prediction matches the
     unperturbed simulator exactly, shift the simulated memory profile by
     1.4x, and count shadow samples until the detector latches *)
  Nicsim.Perturb.reset ();
  let before, detect_samples, control =
    Fun.protect ~finally:Nicsim.Perturb.reset @@ fun () ->
    let server = Serve.Server.create ~cache_capacity:16 ~shadow_rate:1.0 models in
    let q = Serve.Server.quality server in
    let state detector = if Serve.Quality.drift_active q detector then "fired" else "quiet" in
    let send i =
      ignore
        (Serve.Server.handle_request server
           (Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"webtcp"}|} i))
    in
    for i = 1 to 24 do send i done;
    Serve.Server.drain_quality server;
    let before = state "webtcp/memory" in
    Nicsim.Perturb.set ~memory_scale:1.4 ();
    let budget = ref 0 in
    while (not (Serve.Quality.drift_active q "webtcp/memory")) && !budget < 64 do
      incr budget;
      send (24 + !budget)
    done;
    (before, !budget, state "webtcp")
  in
  ( [ ("schema", Str "clara-quality-bench/1");
      ("fast_hit_p50_us_shadow_off", Float (3, p50_off_us));
      ("fast_hit_p50_us_shadow_full", Float (3, p50_shadow_us)); ("drift_nf", Str "webtcp");
      ("drift_detector", Str "memory"); ("drift_memory_scale", Float (1, 1.4));
      ("drift_warmup_samples", Int 24); ("drift_detect_samples", Int detect_samples) ],
    [ Same ("memory drift detector quiet before the perturbation", "quiet", before);
      Check ("shadow-off warm hit p50 us", p50_off_us, Lt 15.0);
      Check ("shadow samples to detect the 1.4x shift", float_of_int detect_samples, Lt 64.0);
      Same ("unshifted compute-error detector stays quiet", "quiet", control);
      Drift ("drift_detect_samples", float_of_int detect_samples, fun b -> Within (b, 0.0)) ] )

(* -- flight: what always-on flight recording costs — the warm fast-path
   hit p50 with recording on must stay within 10% of recording off (the
   record is a clip check, one allocation and an O(1) ring write off the
   reply bytes already built), and the recording-off p50 must stay inside
   the 15 µs fastpath envelope — which also bounds the profiler-off cost
   of the Prof hook in Span.with_ at ~0 (one atomic load).  The
   profiler-on p50 is reported for context only: on a single-core host
   the ticker domain steals cycles from the serving loop, which is the
   profiler's documented cost model, not a regression. -- *)

let flight_bench () =
  let models = quick_models () in
  (* the pinned trace_id keeps replies byte-comparable across servers
     (generated t-N ids draw from a process-global counter) *)
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"b"}|} in
  let server_off = Serve.Server.create ~cache_capacity:16 ~flight_capacity:0 models in
  let server_on = Serve.Server.create ~cache_capacity:16 ~flight_capacity:64 models in
  (* install, then hit: recording must never perturb the bytes on the wire *)
  let replies server =
    let install = Serve.Server.handle_request server warm_line in
    install ^ "\n" ^ Serve.Server.handle_request server warm_line
  in
  let replies_off = replies server_off in
  let replies_on = replies server_on in
  let hit server () = ignore (Serve.Server.handle_request server warm_line) in
  let s = time_blocks [| hit server_off; hit server_on |] in
  let p50_off = percentile s.(0) 50.0 and p50_on = percentile s.(1) 50.0 in
  let recorded = Obs.Flight.recorded (Serve.Server.flight server_on) in
  (* profiler-on context number: same loop with the ticker running *)
  let prof_hz = 200.0 in
  Obs.Prof.start ~hz:prof_hz ();
  let s_prof = (time_blocks [| hit server_off |]).(0) in
  Obs.Prof.stop ();
  Obs.Prof.reset ();
  let ratio = p50_on /. Float.max 1e-9 p50_off in
  ( [ ("schema", Str "clara-flight-bench/1"); ("flight_off_p50_us", Float (3, p50_off));
      ("flight_on_p50_us", Float (3, p50_on)); ("flight_on_ratio", Float (3, ratio));
      ("prof_hz", Float (0, prof_hz)); ("prof_on_p50_us", Float (3, percentile s_prof 50.0)) ],
    [ Same ("flight-on replies byte-equal to flight-off replies", replies_off, replies_on);
      Check ("records taken by the flight-on server while timed", float_of_int recorded, Ge 1.0);
      Check ("flight-off warm hit p50 us", p50_off, Lt 15.0);
      (* 10% relative budget with a 0.2 µs absolute grace: at ~2 µs a
         p50, one clock quantum of noise is already 5% *)
      Check ("flight-on warm hit p50 us (gate 1.10x off + 0.2)", p50_on, Le ((1.10 *. p50_off) +. 0.2));
      Drift ("flight_on_ratio", ratio, fun b -> Le (b +. 0.15)) ] )

(* -- router: what the scale-out front costs and buys — the p50 of a warm
   analyze round trip direct to one worker vs through the router (the
   routed overhead, drift-gated against the committed baseline), and
   sustained pipelined throughput through a 1-worker vs a 3-worker
   topology.  The scale-out gate (>= 1.8x) only fires on a box with at
   least as many cores as workers; below that the topologies time-slice
   one core and the run is marked report-only "degraded". -- *)

let router_workers = 3

let router_bench () =
  let cores = Domain.recommended_domain_count () in
  with_temp_bundle (quick_models ()) @@ fun bundle ->
  let sock name =
    Printf.sprintf "%s/clara_bench_rt_%d_%s.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ()) name
  in
  (* Every worker spawned so far is terminated and reaped on every path
     out, a failure included. *)
  let with_workers names f =
    let spawned = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter Router.Spawn.terminate !spawned;
        List.iter
          (fun sp ->
            Router.Spawn.wait sp;
            try Sys.remove sp.Router.Spawn.sp_socket with Sys_error _ -> ())
          !spawned)
    @@ fun () ->
    List.iter
      (fun name -> spawned := Router.Spawn.spawn ~name ~socket_path:(sock name) ~bundle () :: !spawned)
      names;
    let fleet = List.rev !spawned in
    List.iter
      (fun sp ->
        if not (Router.Spawn.wait_ready sp) then
          failwith (Printf.sprintf "bench worker %s never came up" sp.Router.Spawn.sp_name))
      fleet;
    f fleet
  in
  let with_topology n f =
    with_workers (List.init n (Printf.sprintf "w%d")) @@ fun fleet ->
    let front =
      Router.Front.create ~forward_timeout_s:10.0
        ~workers:(List.map (fun sp -> (sp.Router.Spawn.sp_name, sp.Router.Spawn.sp_socket)) fleet)
        ()
    in
    serving (Router.Front.run front) (fun () -> Router.Front.request_drain front) f
  in
  let warm_line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} ^ "\n" in
  (* sequential round trips over one connection, in blocks (the 1 µs
     clock is too coarse for single round trips) *)
  let rtt_p50 path =
    with_conn path @@ fun fd buf ->
    let round_trip () = exchange fd buf warm_line 1 in
    for _ = 1 to 32 do round_trip () done;
    percentile (time_blocks ~block:16 ~n_blocks:200 [| round_trip |]).(0) 50.0
  in
  (* pipelined throughput: distinct analyze keys so a multi-worker ring
     actually spreads the load *)
  let names = List.filteri (fun i _ -> i < 8) (Serve.Server.corpus_names ()) in
  let lines =
    String.concat ""
      (List.concat_map
         (fun w ->
           List.mapi
             (fun i nf ->
               Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"}|} i nf w ^ "\n")
             names)
         [ "mixed"; "small" ])
  in
  let rate path = pipelined_rate path ~lines ~concurrency:4 ~dur:0.6 in
  (* direct baseline: one worker, no router in the path *)
  let direct_p50 =
    with_workers [ "direct" ] (fun fleet -> rtt_p50 (List.hd fleet).Router.Spawn.sp_socket)
  in
  let rate_1w = with_topology 1 rate in
  let routed_p50, rate_3w = with_topology router_workers (fun path -> (rtt_p50 path, rate path)) in
  let scale = rate_3w /. Float.max 1.0 rate_1w in
  let degraded = cores < router_workers in
  ( [ ("schema", Str "clara-router-bench/1"); ("cores", Int cores); ("workers", Int router_workers);
      ("direct_p50_us", Float (3, direct_p50)); ("routed_p50_us", Float (3, routed_p50));
      ("routed_overhead_us", Float (3, routed_p50 -. direct_p50));
      ("block_lines", Int (count_lines lines)); ("reqs_per_s_1w", Float (0, rate_1w));
      ("reqs_per_s_3w", Float (0, rate_3w)); ("scaleout_x", Float (3, scale)) ]
    @ (if degraded then [ ("degraded", Bool true) ] else []),
    [ Check ("routed warm p50 us", routed_p50, Lt 2000.0) ]
    @ (if degraded then []
       else [ Check (Printf.sprintf "%d-worker / 1-worker throughput" router_workers, scale, Ge 1.8) ])
    @ [ Drift ("routed_p50_us", routed_p50, fun b -> Le (3.0 *. b)) ] )

let gates =
  [ { verb = "parallel"; title = "Compute-core speedups vs retained references"; run = parallel_bench };
    { verb = "serve"; title = "Serve path timings for cmsketch"; run = serve_bench };
    { verb = "obs"; title = "Span instrumentation overhead"; run = obs_bench };
    { verb = "robust"; title = "Robustness report"; run = robust_bench };
    { verb = "fastpath"; title = "Fast-path report"; run = fastpath_bench };
    { verb = "quality"; title = "Prediction-quality report"; run = quality_bench };
    { verb = "flight"; title = "Flight-recorder report"; run = flight_bench };
    { verb = "router"; title = "Router report"; run = router_bench } ]

let usage () =
  Printf.printf "usage: main.exe [--trace FILE] [--metrics FILE] [list | micro | %s | <experiment id>...]\n"
    (String.concat " | " (List.map (fun g -> g.verb) gates));
  print_endline "experiments:";
  List.iter
    (fun e -> Printf.printf "  %-8s %s\n" e.Experiments.Registry.id e.Experiments.Registry.title)
    Experiments.Registry.all

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
  match args with
  | [] -> run_all ()
  | [ "list" ] -> usage ()
  | [ "micro" ] -> run_micro ()
  | _ -> (
    match List.find_opt (fun g -> args = [ g.verb ]) gates with
    | Some g -> run_gate g
    | None ->
      List.iter
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e.Experiments.Registry.run ()
          | None ->
            Printf.printf "unknown experiment %s\n" id;
            usage ();
            exit 1)
        args)
