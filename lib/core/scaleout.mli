(** Multicore scale-out factor analysis (§4.2, Figure 11).

    TVM-style separation of 'algorithm' from 'schedule': a training phase
    deploys synthesized programs across workloads on the (simulated) NIC,
    records the optimal core counts, and fits a GBDT cost model over
    program/workload features; inference then suggests core counts for
    unseen NFs without hardware sweeps. *)

(** Feature vector of an NF under a workload: compute cycles, per-level
    memory accesses, arithmetic intensity, EMEM hit ratio, payload size,
    engine ops, plus knee proxies derived from nominal latencies. *)
val features : Nicsim.Perf.demand -> float array

(** One training point. *)
type sample = { x : float array; optimal : float }

(** Deploy-and-benchmark: [n_programs] synthesized NFs under each spec
    (default: large flows, small flows, 200B payloads), labeled with the
    simulator's knee. *)
val training_samples :
  ?n_programs:int -> ?seed:int -> ?specs:Workload.spec list -> unit -> sample list

(** The pre-optimization sampling path (serial, regenerates every trace per
    (program, spec) pair with the linear-scan sampler).  Produces identical
    samples; the baseline `bench/main.exe parallel` times against. *)
val training_samples_reference :
  ?n_programs:int -> ?seed:int -> ?specs:Workload.spec list -> unit -> sample list

type t = { gbdt : Mlkit.Tree.gbdt }

(** Fit the GBDT cost model. *)
val train : ?samples:sample list -> unit -> t

(** Suggested core count, clamped to the NIC's range. *)
val suggest : ?nic:Nicsim.Multicore.nic -> t -> Nicsim.Perf.demand -> int

(** The cost model flattened to {!Mlkit.Tree.Flat} node arrays for the
    serving fast path; suggestions are identical to {!suggest}. *)
type compiled

val compile : t -> compiled
val suggest_compiled : ?nic:Nicsim.Multicore.nic -> compiled -> Nicsim.Perf.demand -> int

(** Figure 11a baselines trained on the same samples. *)
type baseline =
  | B_knn of Mlkit.Simple.knn
  | B_dnn of Mlkit.Nn.mlp
  | B_automl of Mlkit.Automl.fitted

val train_baseline : [< `Automl | `Dnn | `Knn ] -> sample list -> baseline
val baseline_predict : baseline -> float array -> float
