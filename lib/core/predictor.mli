(** Cross-platform instruction prediction (§3.2, Figures 3, 6, 8).

    An LSTM + fully-connected head is trained on synthesized NF programs:
    each block's compacted token sequence is paired with the number of
    compute instructions the opaque NIC compiler emits for it.  Stateful
    memory accesses are not learned — they are counted directly from the
    IR.  The DNN / 1-D CNN / AutoML baselines of Figure 8 train on the
    same data. *)

(** One training example: a block's tokens and its compilation outcome. *)
type example = {
  tokens : int array;
  nic_compute : float;  (** NIC compute instructions (prediction target) *)
  nic_mem : float;  (** NIC memory operations (for accuracy reporting) *)
  ir_mem : float;  (** direct IR stateful-access count *)
}

type dataset = { vocab : Vocab.t; examples : example array }

(** Build the training corpus from [n] synthesized programs (§3.2 data
    synthesis). *)
val synthesize_dataset : ?n:int -> ?seed:int -> unit -> dataset

(** The retained pre-optimization synthesis pipeline (serial, corpus
    statistics recomputed per call, reference NFCC compiler).  Produces a
    dataset bit-identical to {!synthesize_dataset}; the baseline
    `bench/main.exe parallel` times the fast path against. *)
val synthesize_dataset_reference : ?n:int -> ?seed:int -> unit -> dataset

(** A trained predictor: the frozen vocabulary plus the LSTM+FC model. *)
type t = { vocab : Vocab.t; lstm : Mlkit.Lstm.t }

(** Train Clara's LSTM+FC; freezes the dataset's vocabulary.  [batch]
    examples are accumulated per Adam step, their gradients computed
    concurrently on {!Util.Pool} (deterministic for any job count). *)
val train : ?epochs:int -> ?hidden:int -> ?batch:int -> dataset -> t

(** Predicted compute-instruction count for one token sequence. *)
val predict_block : t -> int array -> float

(** Per-block [(bid, predicted compute, direct memory count)] for a
    prepared element, each block's tokens through the given block
    predictor ({!predict_block} or {!predict_block_compiled}).  The one
    prediction body, under a ["predict"] span. *)
val predict_prepared : (int array -> float) -> Prepare.t -> (int * float * float) list

(** {!predict_prepared} on the element's {!Prepare.prepare}. *)
val predict_element : t -> Nf_lang.Ast.element -> (int * float * float) list

(** A predictor compiled for serving: shares the trained weights, owns a
    preallocated LSTM scratch so repeat queries are allocation-free, and
    a memo from block token sequence to prediction, keyed and compared
    on the whole sequence.  Predictions and span shape are identical to
    {!predict_element}.  Not thread-safe — a serving worker keeps one
    and predicts with it from one job at a time.

    The memo counts its lookups in the {!Obs.Metrics} counters
    [clara_predict_memo_hits_total] and [clara_predict_memo_misses_total]. *)
type compiled

val compile : t -> compiled

(** {!predict_block}, bit for bit, answered from the memo when the same
    sequence was predicted before. *)
val predict_block_compiled : compiled -> int array -> float

(** Tokens held by a compiled predictor's memo: the summed lengths of its
    memoized sequences, never above {!memo_budget}. *)
val memo_tokens : compiled -> int

(** The fixed per-predictor memo bound, in tokens.  A sequence that would
    take the memo past it empties the memo first. *)
val memo_budget : int

val predict_element_compiled : compiled -> Nf_lang.Ast.element -> (int * float * float) list

(** Ground truth [(bid, NIC compute, NIC memory)] from the NIC compiler —
    what the paper obtains by actually porting and compiling with NFCC. *)
val ground_truth : Nf_lang.Ast.element -> (int * float * float) list

(** Per-block weighted mean absolute percentage error of the compute
    prediction on one element (the Figure 8 metric). *)
val wmape_on_element : t -> Nf_lang.Ast.element -> float

(** Accuracy of direct memory counting against the NIC compiler's memory
    operations (paper: 96.4-100%). *)
val memory_accuracy : Nf_lang.Ast.element -> float

(** Bag-of-words features (token histogram + length) for the dense
    baselines. *)
val bow_features : int -> int array -> float array

(** Figure 8 baselines, trained on the same dataset. *)
type baseline =
  | Dnn of Mlkit.Nn.mlp
  | Cnn1d of Mlkit.Cnn.t
  | Automl of Mlkit.Automl.fitted

val train_dnn : dataset -> baseline
val train_cnn : dataset -> baseline
val train_automl : dataset -> baseline

(** Baseline prediction for one block. *)
val baseline_predict : Vocab.t -> baseline -> int array -> float

(** Per-block WMAPE of a baseline on one element. *)
val baseline_wmape_on_element : Vocab.t -> baseline -> Nf_lang.Ast.element -> float
