(** Algorithm identification for accelerator offloading (§4.1, Figures 7,
    9, 10a).

    Features combine Sequential Pattern Extraction — frequent opcode
    n-grams with high support in positives and high confidence against
    negatives — with the paper's manually-engineered features (bitwise-op
    density for CRC, bounded pointer chasing for LPM).  A linear SVM is
    trained one-vs-rest per accelerator class; inference labels every
    component (loop nest) of an NF. *)

(** Analyzable components of an element: [(name, component)] for the whole
    handler plus each outermost loop (accelerator algorithms live in loop
    nests). *)
val components : Nf_lang.Ast.element -> (string * Nf_lang.Ast.element) list

(** The element's flattened opcode-index sequence (lowered IR). *)
val opcode_seq : Nf_lang.Ast.element -> int array

(** Canonical string key of an opcode n-gram. *)
val gram_key : int list -> string

(** Mine up to [top] discriminative n-grams of the opcode-index
    sequences: support >= 0.5 among positives and confidence >= 0.7
    against negatives (§4.1's high-support / high-confidence criteria).
    Each sequence's grams are counted once; score ties keep {!gram_key}
    order.  @raise Invalid_argument on a length in [ns] outside 1..12 or
    a value that is not an opcode index. *)
val mine_grams :
  ?ns:int list ->
  ?top:int ->
  positives:int array list ->
  negatives:int array list ->
  unit ->
  (string * int) list

(** The hand-crafted feature vector: bitop/shift/load/add/compare
    densities, the pointer-chase flag, and loop-nest depth. *)
val manual_features : Nf_lang.Ast.element -> float array

(** One per-class one-vs-rest model. *)
type model = {
  label : Algo_corpus.label;
  grams : (string * int) list;  (** selected (gram key, n) features *)
  svm : Mlkit.Simple.svm;
}

(** Which feature families to use — [`Both] is Clara; the others exist for
    the feature-ablation experiment. *)
type feature_mode = [ `Both | `Manual_only | `Spe_only ]

type t = { models : model list; mode : feature_mode }

(** Train the per-class SVMs.  The corpus is expanded to component level so
    training matches what {!detect} classifies.  Training and inference
    compute each component's opcode sequence, gram counts and manual
    features once and score every class model from them. *)
val train :
  ?mode:feature_mode ->
  ?corpus:(Nf_lang.Ast.element * Algo_corpus.label) list ->
  unit ->
  t

(** Label one element/component: the accelerator whose SVM fires with the
    highest margin, or [Other]. *)
val classify : t -> Nf_lang.Ast.element -> Algo_corpus.label

(** The classifier with every model's selected grams packed once, so an
    analysis parses no gram key.  Built by {!Pipeline.compile}. *)
type compiled

val compile : t -> compiled

(** Scan a full NF already lowered to the given IR: every component with a
    detected accelerator algorithm, as [(component name, label)].  The
    whole-element component reads the IR; only loop components are
    lowered. *)
val detect_compiled :
  compiled -> Nf_lang.Ast.element -> Nf_ir.Ir.func -> (string * Algo_corpus.label) list

(** {!detect_compiled} on the element's own lowering. *)
val detect : t -> Nf_lang.Ast.element -> (string * Algo_corpus.label) list

(** Feature vector against a given class model — the Figure 10a PCA input. *)
val class_features : t -> Algo_corpus.label -> Nf_lang.Ast.element -> float array
