(** End-to-end Clara pipeline (Figures 2 and 3): train the learned
    components once, then analyze any unported NF without touching the
    (simulated) hardware. *)

(** The trained model bundle. *)
type models = {
  predictor : Predictor.t;  (** instruction prediction (§3.2) *)
  algo : Algo_id.t;  (** accelerator-algorithm classifiers (§4.1) *)
  scaleout : Scaleout.t option;  (** core-count cost model (§4.2), optional *)
  colocation : Colocation.t option;  (** colocation ranker (§4.5), optional *)
}

(** Train Clara.  [quick] shrinks training sets (seconds instead of
    minutes); [with_scaleout:false] skips the most expensive training
    phase; [with_colocation:true] additionally trains the colocation
    ranker (needed when the bundle is persisted for serving). *)
val train : ?quick:bool -> ?with_scaleout:bool -> ?with_colocation:bool -> unit -> models

(** Produce the full insight bundle for an unported NF under a workload:
    performance parameters, accelerator opportunities, scale-out factor,
    state placement and variable packs. *)
val analyze : models -> Nf_lang.Ast.element -> Workload.spec -> Insights.t

(** [analyze] rendered as the textual report. *)
val report : models -> Nf_lang.Ast.element -> Workload.spec -> string

(** The bundle compiled for serving: the LSTM predictor bound to a
    preallocated scratch and a per-block prediction memo, the
    scale-out GBDT flattened to node arrays, and the accelerator
    classifier's selected grams packed to ints, so repeat analyses are
    allocation-free in the learned-inference stages, each distinct
    block is predicted once and no gram key is parsed per analysis.  [analyze_compiled] is bit-identical to
    {!analyze}, with the same span tree.  Not thread-safe — a serving
    worker keeps one and runs its analyses one at a time. *)
type compiled

val compile : models -> compiled
val analyze_compiled : compiled -> Nf_lang.Ast.element -> Workload.spec -> Insights.t
val report_compiled : compiled -> Nf_lang.Ast.element -> Workload.spec -> string
