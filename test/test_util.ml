(** Unit and property tests for the util library: PRNG, statistics,
    distribution distances, and table rendering. *)

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* -- Rng -- *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Util.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Util.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Util.Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Util.Rng.create 9 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Util.Rng.int rng 0))

let test_rng_split_independent () =
  let parent = Util.Rng.create 5 in
  let child = Util.Rng.split parent in
  let xs = List.init 10 (fun _ -> Util.Rng.int parent 1000) in
  let ys = List.init 10 (fun _ -> Util.Rng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_weighted_index () =
  let rng = Util.Rng.create 11 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Util.Rng.weighted_index rng [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight bucket never chosen" 0 counts.(1);
  Alcotest.(check bool) "heavier bucket dominates" true (counts.(2) > counts.(0))

let test_shuffle_permutation () =
  let rng = Util.Rng.create 13 in
  let arr = Array.init 50 (fun i -> i) in
  Util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Util.Rng.create 17 in
  let s = Util.Rng.sample_without_replacement rng 10 5 in
  Alcotest.(check int) "size" 5 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 5 (List.length distinct)

let test_gaussian_moments () =
  let rng = Util.Rng.create 19 in
  let xs = Array.init 20_000 (fun _ -> Util.Rng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (abs_float (Util.Stats.mean xs) < 0.05);
  Alcotest.(check bool) "stddev near 1" true (abs_float (Util.Stats.stddev xs -. 1.0) < 0.05)

(* -- Stats -- *)

let test_mean_variance () =
  check_float "mean" 2.5 (Util.Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float ~eps:1e-6 "variance" (5.0 /. 3.0) (Util.Stats.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Util.Stats.median xs);
  check_float "p0" 1.0 (Util.Stats.percentile 0.0 xs);
  check_float "p100" 5.0 (Util.Stats.percentile 100.0 xs);
  check_float "p25 interpolates" 2.0 (Util.Stats.percentile 25.0 xs)

let test_argminmax () =
  let xs = [| 3.0; 9.0; 1.0; 9.0 |] in
  Alcotest.(check int) "argmax first winner" 1 (Util.Stats.argmax xs);
  Alcotest.(check int) "argmin" 2 (Util.Stats.argmin xs)

let test_normalize () =
  let p = Util.Stats.normalize [| 1.0; 3.0 |] in
  check_float "first" 0.25 p.(0);
  check_float "second" 0.75 p.(1);
  let u = Util.Stats.normalize [| 0.0; 0.0 |] in
  check_float "zero array becomes uniform" 0.5 u.(0)

let test_histogram () =
  let h = Util.Stats.histogram ~card:3 [ 0; 1; 1; 2; 2; 2 ] in
  Alcotest.(check (float 0.0)) "bucket 2" 3.0 h.(2);
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.histogram: out of range")
    (fun () -> ignore (Util.Stats.histogram ~card:2 [ 5 ]))

let test_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0 |> fun v -> v) xs in
  check_float ~eps:1e-9 "perfect positive" 1.0 (Util.Stats.correlation xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_float ~eps:1e-9 "perfect negative" (-1.0) (Util.Stats.correlation xs zs)

(* -- Distance -- *)

let test_distance_identical () =
  let p = [| 0.2; 0.3; 0.5 |] in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " ~0 on identical") true (abs_float v < 1e-6))
    (Util.Distance.all p (Array.copy p))

let test_distance_orders () =
  let p = [| 0.5; 0.5; 0.0 |] in
  let near = [| 0.45; 0.55; 0.0 |] in
  let far = [| 0.05; 0.05; 0.9 |] in
  List.iter2
    (fun (name, dn) (_, df) ->
      Alcotest.(check bool) (name ^ " orders near<far") true (dn < df))
    (Util.Distance.all p near)
    (Util.Distance.all p far)

let test_js_symmetric () =
  let p = [| 0.7; 0.2; 0.1 |] and q = [| 0.1; 0.6; 0.3 |] in
  check_float ~eps:1e-9 "JS symmetric" (Util.Distance.jensen_shannon p q)
    (Util.Distance.jensen_shannon q p)

let test_variational_bounds () =
  let p = [| 1.0; 0.0 |] and q = [| 0.0; 1.0 |] in
  Alcotest.(check bool) "TV close to 2 for disjoint" true (Util.Distance.variational p q > 1.9)

(* -- Table -- *)

let test_table_render () =
  let s = Util.Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "three lines plus separator" 4 (List.length lines);
  (* all lines equal width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

(* -- qcheck properties -- *)

let prop_normalize_sums_to_one =
  QCheck.Test.make ~name:"normalize sums to 1" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 20) (float_range 0.0 100.0))
    (fun xs ->
      let p = Util.Stats.normalize xs in
      abs_float (Array.fold_left ( +. ) 0.0 p -. 1.0) < 1e-6)

let prop_distance_nonnegative =
  QCheck.Test.make ~name:"all distances nonnegative" ~count:200
    QCheck.(pair (array_of_size (Gen.return 8) (float_range 0.0 10.0))
              (array_of_size (Gen.return 8) (float_range 0.0 10.0)))
    (fun (p, q) ->
      QCheck.assume (Array.exists (fun v -> v > 0.0) p);
      QCheck.assume (Array.exists (fun v -> v > 0.0) q);
      List.for_all (fun (_, d) -> d >= -1e-9) (Util.Distance.all p q))

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within min..max" ~count:200
    QCheck.(pair (float_range 0.0 100.0) (array_of_size (Gen.int_range 1 30) (float_range (-50.0) 50.0)))
    (fun (p, xs) ->
      let v = Util.Stats.percentile p xs in
      v >= Util.Stats.min_arr xs -. 1e-9 && v <= Util.Stats.max_arr xs +. 1e-9)

(* -- cooperative jobs (Util.Coop) -- *)

(* Run past the 50 us slice floor, so the next yield point suspends. *)
let spin () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 200e-6 do
    ()
  done

(* Step [job] to completion: the slices it took and its result. *)
let run_job job =
  let rec go n = match Util.Coop.step job with Some v -> (n + 1, v) | None -> go (n + 1) in
  go 0

let test_coop_slices () =
  let trail = ref [] in
  let job =
    Util.Coop.create (fun () ->
        for i = 1 to 3 do
          spin ();
          trail := i :: !trail;
          Util.Coop.yield ()
        done;
        "done")
  in
  Alcotest.(check bool) "nothing runs before the first step" false (Util.Coop.started job);
  Alcotest.(check (option string)) "the first slice suspends" None (Util.Coop.step job);
  Alcotest.(check (list int)) "at the first yield point" [ 1 ] !trail;
  (* outside a job a yield point does nothing *)
  Util.Coop.yield ();
  Alcotest.(check (pair int string)) "three more slices, then the result" (3, "done") (run_job job);
  Alcotest.(check (list int)) "every step ran once" [ 3; 2; 1 ] !trail;
  Alcotest.check_raises "a finished job" (Invalid_argument "Coop.step: the job has finished")
    (fun () -> ignore (Util.Coop.step job))

(* A yield point inside a pool task never suspends the job, whatever the
   pool size: the region's tasks run to completion. *)
let test_coop_pool_region () =
  let saved = Util.Pool.jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) @@ fun () ->
  List.iter
    (fun jobs ->
      Util.Pool.set_jobs jobs;
      let job =
        Util.Coop.create (fun () ->
            Util.Pool.parallel_for ~chunk:1 0 4 (fun _ ->
                spin ();
                Util.Coop.yield ());
            spin ();
            Util.Coop.yield ();
            7)
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "one suspension, outside the region (jobs=%d)" jobs) (2, 7) (run_job job))
    [ 1; 4 ]

(* Cancelling a suspended job runs its finalizers: a lock taken inside
   [Fun.protect] is released. *)
let test_coop_cancel () =
  let lock = Mutex.create () in
  let job =
    Util.Coop.create (fun () ->
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            spin ();
            Util.Coop.yield ();
            Alcotest.fail "a cancelled job resumed"))
  in
  Alcotest.(check bool) "suspended holding the lock" true (Util.Coop.step job = None);
  Alcotest.(check bool) "lock held" false (Mutex.try_lock lock);
  Util.Coop.cancel job;
  Alcotest.(check bool) "lock released" true (Mutex.try_lock lock);
  Mutex.unlock lock

(* A serving worker's first trace for a spec is generated inside a miss's
   job: its serial loops yield, so the job takes several slices.  The
   yields draw nothing, so the trace is the one generated outside a job. *)
let test_coop_trace_generation () =
  let spec = { Workload.small_flows with Workload.n_packets = 800; seed = 0x51ce } in
  let slices, trace = run_job (Util.Coop.create (fun () -> Workload.generate spec)) in
  Alcotest.(check bool) (Printf.sprintf "more than one slice (%d)" slices) true (slices > 1);
  Alcotest.(check bool) "the same packets as outside a job" true
    (trace = Workload.generate_with spec)

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "rejects nonpositive bound" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments ] );
      ( "stats",
        [ Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "argmin/argmax" `Quick test_argminmax;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "correlation" `Quick test_correlation ] );
      ( "distance",
        [ Alcotest.test_case "identical is ~zero" `Quick test_distance_identical;
          Alcotest.test_case "orders near/far" `Quick test_distance_orders;
          Alcotest.test_case "JS symmetric" `Quick test_js_symmetric;
          Alcotest.test_case "variational bounds" `Quick test_variational_bounds ] );
      ("table", [ Alcotest.test_case "render alignment" `Quick test_table_render ]);
      ( "coop",
        [ Alcotest.test_case "slices, yield outside a job" `Quick test_coop_slices;
          Alcotest.test_case "no suspension inside a pool task" `Quick test_coop_pool_region;
          Alcotest.test_case "cancel runs finalizers" `Quick test_coop_cancel;
          Alcotest.test_case "a fresh spec's trace takes several slices" `Quick
            test_coop_trace_generation ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_normalize_sums_to_one; prop_distance_nonnegative; prop_percentile_within_range ]
      ) ]
