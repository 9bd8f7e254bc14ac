(** Multicore scale-out factor analysis (§4.2, Figure 11).

    TVM-style: 'algorithm' (the NF) is separated from 'schedule' (the core
    count); a training phase deploys synthesized programs on the NIC
    across workloads, observes the optimal core counts, and fits a GBDT
    cost model over program/workload features.  Inference predicts the
    best core count for an unseen NF without sweeping the hardware. *)

(** Feature vector of an NF under a workload, from its demand profile:
    compute cycles, per-level memory accesses, arithmetic intensity, EMEM
    cache hit ratio, and the wire-relevant packet size. *)
let features (d : Nicsim.Perf.demand) =
  (* unloaded service-time proxy: Clara knows nominal level latencies from
     its own one-off calibration measurements, but not the bandwidths *)
  let s0 =
    List.fold_left
      (fun acc level ->
        let idx = Nicsim.Mem.level_index level in
        acc
        +. d.Nicsim.Perf.levels.(idx)
           *. Nicsim.Multicore.level_base_latency ~emem_hit:d.Nicsim.Perf.emem_hit level)
      d.Nicsim.Perf.compute Nicsim.Mem.all_levels
  in
  let mem_total = Nicsim.Perf.total_mem_accesses d in
  let bottleneck =
    List.fold_left (fun acc level ->
        let idx = Nicsim.Mem.level_index level in
        if level = Nicsim.Mem.LMEM then acc else max acc d.Nicsim.Perf.levels.(idx))
      1e-3 Nicsim.Mem.all_levels
  in
  [| d.Nicsim.Perf.compute /. 100.0;
     d.Nicsim.Perf.levels.(0) /. 10.0;
     d.Nicsim.Perf.levels.(1);
     d.Nicsim.Perf.levels.(2);
     d.Nicsim.Perf.levels.(3);
     d.Nicsim.Perf.levels.(4);
     Nicsim.Perf.arithmetic_intensity d /. 10.0;
     d.Nicsim.Perf.emem_hit;
     float_of_int d.Nicsim.Perf.payload_bytes /. 100.0;
     List.fold_left (fun acc (_, n) -> acc +. n) 0.0 d.Nicsim.Perf.accel_ops;
     s0 /. 1000.0;
     mem_total /. 10.0;
     (* knee proxies: saturation core count scales with S0 / M_bottleneck
        and with wire_rate * S0 *)
     s0 /. (100.0 *. max 1e-3 bottleneck);
     s0 /. (20.0 *. float_of_int (d.Nicsim.Perf.wire_bytes + 20)) |]

type sample = { x : float array; optimal : float }

let default_specs () =
  [ { Workload.large_flows with Workload.n_packets = 400 };
    { Workload.small_flows with Workload.n_packets = 400 };
    { Workload.default with Workload.n_packets = 400; Workload.payload_len = 200 } ]

(** Build training samples: synthesized NFs x workload specs, labeled with
    the simulator's optimal core count (the paper's automated pipeline of
    deploy-and-benchmark).  {!Workload.generate} memoizes each spec's
    trace, so benchmarking [n_programs] programs does not regenerate the
    same (expensive, 256k-flow) trace [n_programs] times.  Samples are
    identical to the regenerate-per-pair path
    ({!training_samples_reference}). *)
let training_samples ?(n_programs = 40) ?(seed = 1301) ?(specs : Workload.spec list option) () =
  Obs.Span.with_ ~cat:"pipeline" "scaleout.samples" @@ fun () ->
  let specs = match specs with Some s -> s | None -> default_specs () in
  let programs = Synth.Generator.batch ~seed n_programs in
  (* each program x spec deploy-and-benchmark is independent: fan the
     programs out on the domain pool, keeping sample order *)
  Util.Pool.parallel_concat_map_list ~chunk:1 ~cost:10_000.0
    (fun elt ->
      List.filter_map
        (fun spec ->
          match Nicsim.Nic.port elt spec with
          | ported ->
            let d = ported.Nicsim.Nic.demand in
            Some { x = features d; optimal = float_of_int (Nicsim.Multicore.optimal_cores d) }
          | exception _ -> None)
        specs)
    programs

(** The pre-optimization sampling path, retained as the baseline
    `bench/main.exe parallel` times {!training_samples} against: fully
    serial, regenerating every workload trace per (program, spec) pair
    with the linear-scan flow sampler.  Produces identical samples. *)
let training_samples_reference ?(n_programs = 40) ?(seed = 1301)
    ?(specs : Workload.spec list option) () =
  let specs = match specs with Some s -> s | None -> default_specs () in
  let programs = Synth.Generator.batch ~seed n_programs in
  List.concat_map
    (fun elt ->
      List.filter_map
        (fun spec ->
          match Nicsim.Nic.port ~packets:(Workload.generate_reference spec) elt spec with
          | ported ->
            let d = ported.Nicsim.Nic.demand in
            Some { x = features d; optimal = float_of_int (Nicsim.Multicore.optimal_cores d) }
          | exception _ -> None)
        specs)
    programs

type t = { gbdt : Mlkit.Tree.gbdt }

let train ?(samples : sample list option) () =
  Obs.Span.with_ ~cat:"pipeline" "scaleout.fit" @@ fun () ->
  let samples = match samples with Some s -> s | None -> training_samples () in
  let xs = Array.of_list (List.map (fun s -> s.x) samples) in
  let ys = Array.of_list (List.map (fun s -> s.optimal) samples) in
  { gbdt =
      Mlkit.Tree.gbdt_fit ~n_stages:200 ~shrinkage:0.06
        ~config:{ Mlkit.Tree.default_grow with Mlkit.Tree.max_depth = 4; Mlkit.Tree.min_leaf = 2 }
        xs ys }

(** Suggested core count for an NF/workload, clamped to the NIC. *)
let suggest ?(nic = Nicsim.Multicore.default_nic) t (d : Nicsim.Perf.demand) =
  Obs.Span.with_ ~cat:"pipeline" "scaleout.suggest" @@ fun () ->
  let raw = Mlkit.Tree.gbdt_predict t.gbdt (features d) in
  max 1 (min nic.Nicsim.Multicore.n_cores (int_of_float (Float.round raw)))

(* -- compiled inference --

   The GBDT flattened to {!Mlkit.Tree.Flat} node arrays: same suggestions
   ([Flat.gbdt_eval] is bit-identical to [gbdt_predict]), no boxed-tree
   pointer chasing on the serving fast path. *)

type compiled = { flat : Mlkit.Tree.Flat.gbdt_flat }

let compile t = { flat = Mlkit.Tree.Flat.of_gbdt t.gbdt }

let suggest_compiled ?(nic = Nicsim.Multicore.default_nic) c (d : Nicsim.Perf.demand) =
  Obs.Span.with_ ~cat:"pipeline" "scaleout.suggest" @@ fun () ->
  let raw = Mlkit.Tree.Flat.gbdt_eval c.flat (features d) in
  max 1 (min nic.Nicsim.Multicore.n_cores (int_of_float (Float.round raw)))

(* -- Figure 11a baselines -- *)

type baseline = B_knn of Mlkit.Simple.knn | B_dnn of Mlkit.Nn.mlp | B_automl of Mlkit.Automl.fitted

let train_baseline kind (samples : sample list) =
  let xs = Array.of_list (List.map (fun s -> s.x) samples) in
  let ys = Array.of_list (List.map (fun s -> s.optimal) samples) in
  match kind with
  | `Knn -> B_knn (Mlkit.Simple.knn_fit ~k:5 xs ys)
  | `Dnn ->
    let net =
      Mlkit.Nn.mlp_create (Util.Rng.create 77) ~in_dim:(Array.length xs.(0)) ~hidden:[ 24; 12 ]
        ~out_dim:1
    in
    (* scale targets for conditioning; predictions are unscaled below *)
    Mlkit.Nn.mlp_fit_regression ~epochs:60 net xs (Array.map (fun y -> [| y /. 10.0 |]) ys);
    B_dnn net
  | `Automl -> B_automl (Mlkit.Automl.search_regression xs ys)

let baseline_predict b x =
  match b with
  | B_knn m -> Mlkit.Simple.knn_predict m x
  | B_dnn net -> 10.0 *. (Mlkit.Nn.mlp_predict net x).(0)
  | B_automl f -> Mlkit.Automl.predict f x
