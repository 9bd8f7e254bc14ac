(** Cross-platform instruction prediction (§3.2, Figures 3, 6, 8).

    The LSTM+FC model is trained on synthesized NF programs: each basic
    block's compacted-vocabulary token sequence is paired with the number
    of compute instructions the (opaque) NIC compiler emits for it.
    Memory accesses are not learned: stateful IR loads/stores are counted
    directly (the paper measures this simple count at 96.4-100% accuracy).

    Baselines for Figure 8 are trained on the same data: a DNN and AutoML
    on bag-of-words block features, and a 1-D CNN on the token sequence. *)

open Nf_lang
open Nf_ir

type example = { tokens : int array; nic_compute : float; nic_mem : float; ir_mem : float }

type dataset = { vocab : Vocab.t; examples : example array }

(* The one compiled-block labeller: [(bid, NIC compute, NIC memory)],
   where compute is every instruction that is not a memory op. *)
let label (cb : Nicsim.Nfcc.compiled_block) =
  let compute = ref 0 and mem = ref 0 in
  List.iter
    (fun (i : Nicsim.Isa.instr) ->
      if Nicsim.Isa.is_mem i || Nicsim.Isa.is_local_mem i then incr mem else incr compute)
    cb.Nicsim.Nfcc.instrs;
  (cb.Nicsim.Nfcc.bid, float_of_int !compute, float_of_int !mem)

(* Per-program intermediate of the parallel synthesis pass: abstract word
   sequences (not yet interned) plus the compiler's per-block labels. *)
type raw_program = {
  block_words : string array array;  (** per IR block, in block order *)
  block_ir_mem : int array;
  labels : (int * float * float) array;  (** compiled (bid, compute, mem) *)
}

let raw_of_element (elt : Ast.element) =
  let ir = Obs.Span.with_ ~cat:"pipeline" "lower" (fun () -> Nf_frontend.Lower.lower_element elt) in
  let compiled = Obs.Span.with_ ~cat:"pipeline" "nfcc.compile" (fun () -> Nicsim.Nfcc.compile ir) in
  (* one walk per IR block derives the word sequence and the stateful-mem
     count together *)
  let nb = Array.length ir.Ir.blocks in
  let block_words = Array.make nb [||] in
  let block_ir_mem = Array.make nb 0 in
  Array.iteri
    (fun i (b : Ir.block) ->
      let mem = ref 0 in
      let words =
        List.map
          (fun (ins : Ir.instr) ->
            (match ins.Ir.annot with Ir.Mem_stateful _ -> incr mem | _ -> ());
            Vocab.word ins)
          b.Ir.instrs
      in
      block_words.(i) <- Array.of_list words;
      block_ir_mem.(i) <- !mem)
    ir.Ir.blocks;
  {
    block_words;
    block_ir_mem;
    labels = Array.map label compiled.Nicsim.Nfcc.cblocks;
  }

(** Build the training corpus from synthesized programs (§3.2 data
    synthesis) — [n] programs generated from the Click-corpus statistics.

    Generation, lowering and NFCC compilation of each program fan out on
    the domain pool; vocabulary interning stays serial, walking programs
    and blocks in order, so token ids — and hence the whole dataset — are
    bit-identical to a serial build for any [CLARA_JOBS]. *)
let synthesize_dataset ?(n = 120) ?(seed = 501) () =
  Obs.Span.with_ ~cat:"pipeline" "dataset.synthesize" @@ fun () ->
  let vocab = Vocab.create () in
  let programs =
    Obs.Span.with_ ~cat:"pipeline" "synth.generate" (fun () -> Synth.Generator.batch ~seed n)
  in
  (* ~70 us per program: small batches fall back to the serial path
     instead of paying fan-out overhead (the jobs=2 regression this
     replaced was 0.53x on exactly this kernel) *)
  let raws = Util.Pool.parallel_map_list ~chunk:1 ~cost:70.0 raw_of_element programs in
  let examples =
    Obs.Span.with_ ~cat:"pipeline" "vocab.intern" @@ fun () ->
    (* fill a preallocated array instead of concat_map + filter + of_list:
       the upper bound is the total compiled-block count *)
    let total = List.fold_left (fun acc r -> acc + Array.length r.labels) 0 raws in
    let buf =
      Array.make total { tokens = [||]; nic_compute = 0.0; nic_mem = 0.0; ir_mem = 0.0 }
    in
    let filled = ref 0 in
    List.iter
      (fun raw ->
        let tokens = Array.map (Array.map (Vocab.index vocab)) raw.block_words in
        Array.iter
          (fun (bid, nic_compute, nic_mem) ->
            let tk = tokens.(bid) in
            if Array.length tk > 0 then begin
              buf.(!filled) <-
                { tokens = tk; nic_compute; nic_mem; ir_mem = float_of_int raw.block_ir_mem.(bid) };
              incr filled
            end)
          raw.labels)
      raws;
    Array.sub buf 0 !filled
  in
  { vocab; examples }

(** The retained pre-optimization synthesis pipeline: serial generation
    with the corpus statistics recomputed per call, lowering through the
    quadratic builder ({!Nf_frontend.Lower.Reference}), the reference
    NFCC compiler and [String.concat]-based word interning, in the seed's
    [examples_of_element] shape ([List.nth] included).  Produces a
    dataset bit-identical to {!synthesize_dataset}; the baseline
    `bench/main.exe parallel` times the fast path against. *)
let synthesize_dataset_reference ?(n = 120) ?(seed = 501) () =
  let vocab = Vocab.create () in
  let stats = Synth.Ast_stats.of_corpus (Corpus.table2 ()) in
  let programs =
    List.init n (fun k ->
        Synth.Generator.generate ~stats ~seed:(seed + (k * 7919)) (Printf.sprintf "syn_%d" k))
  in
  let examples_of elt =
    let prep = Prepare.prepare_reference vocab elt in
    let compiled = Nicsim.Nfcc.compile_reference prep.Prepare.ir in
    Array.to_list
      (Array.map
         (fun (cb : Nicsim.Nfcc.compiled_block) ->
           let info = List.nth prep.Prepare.blocks cb.Nicsim.Nfcc.bid in
           {
             tokens = info.Prepare.tokens;
             nic_compute = float_of_int (Nicsim.Isa.count_compute cb.Nicsim.Nfcc.instrs);
             nic_mem =
               float_of_int
                 (Nicsim.Isa.count_mem cb.Nicsim.Nfcc.instrs
                 + Nicsim.Isa.count_local_mem cb.Nicsim.Nfcc.instrs);
             ir_mem = float_of_int info.Prepare.ir_mem_stateful;
           })
         compiled.Nicsim.Nfcc.cblocks)
  in
  let examples =
    List.concat_map examples_of programs
    |> List.filter (fun e -> Array.length e.tokens > 0)
  in
  { vocab; examples = Array.of_list examples }

type t = {
  vocab : Vocab.t;
  lstm : Mlkit.Lstm.t;
}

(** Train Clara's LSTM+FC on a dataset.  [batch] examples are accumulated
    per Adam step with gradients computed concurrently on the domain pool;
    the fit is deterministic for any [CLARA_JOBS] value. *)
let train ?(epochs = 10) ?(hidden = 32) ?(batch = 8) (ds : dataset) =
  Obs.Span.with_ ~cat:"pipeline" "predictor.fit" @@ fun () ->
  Vocab.freeze ds.vocab;
  let lstm = Mlkit.Lstm.create ~hidden ~vocab:(Vocab.size ds.vocab) 211 in
  let data = Array.map (fun e -> (e.tokens, [| e.nic_compute |])) ds.examples in
  let series = Obs.Series.create ~capacity:(max 16 epochs) "predictor.fit" in
  Mlkit.Lstm.fit ~epochs ~batch
    ~progress:(fun ~epoch ~loss -> Obs.Series.record series ~step:epoch loss)
    lstm data;
  { vocab = ds.vocab; lstm }

(** Predicted compute-instruction count for one block. *)
let predict_block t tokens = max 0.0 (Mlkit.Lstm.predict t.lstm tokens).(0)

(** The one per-block prediction body: [(bid, predicted compute, direct
    memory count)] for a prepared element, each block's tokens through
    [predict_block]. *)
let predict_prepared predict_block (prep : Prepare.t) =
  Obs.Span.with_ ~cat:"pipeline" "predict" @@ fun () ->
  List.map
    (fun (b : Prepare.block_info) ->
      Util.Coop.yield ();
      (b.Prepare.bid, predict_block b.Prepare.tokens, float_of_int b.Prepare.ir_mem_stateful))
    prep.Prepare.blocks

(** Per-block predictions for a whole unported element. *)
let predict_element t elt = predict_prepared (predict_block t) (Prepare.prepare t.vocab elt)

(* -- compiled inference --

   A compiled predictor shares the trained weights but owns a
   preallocated {!Mlkit.Lstm.scratch}, so repeated serving queries run
   the LSTM allocation-free.  A prediction depends only on the block's
   token sequence, and blocks repeat heavily across NFs and workloads,
   so it also owns a memo from token sequence to prediction, keyed,
   hashed and compared on the whole sequence and filled by the same
   LSTM call.  The memo holds at most [memo_budget] tokens and is
   emptied when the next sequence would pass that bound.  Predictions
   are bit-identical to {!predict_element} and the span shape is
   unchanged — the trace of a compiled analysis must be
   indistinguishable from a direct one.  A compiled predictor is not
   thread-safe (the scratch and the memo are shared state): a serving
   worker keeps one and predicts with it from one job at a time. *)

module Tokens = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  (* FNV-1a over every token: the stdlib hash looks at a bounded prefix *)
  let hash (a : t) =
    let h = ref 0x811c9dc5 in
    Array.iter (fun tok -> h := (!h lxor tok) * 0x100000001b3) a;
    !h land max_int
end)

let memo_budget = 1 lsl 15

let m_memo_hits =
  Obs.Metrics.counter ~help:"Block predictions answered from a compiled predictor's memo"
    "clara_predict_memo_hits_total"

let m_memo_misses =
  Obs.Metrics.counter ~help:"Block predictions computed by the LSTM and memoized"
    "clara_predict_memo_misses_total"

type compiled = {
  c_base : t;
  c_scratch : Mlkit.Lstm.scratch;
  c_memo : float Tokens.t;
  mutable c_memo_tokens : int;
}

let compile t =
  { c_base = t; c_scratch = Mlkit.Lstm.scratch t.lstm; c_memo = Tokens.create 256; c_memo_tokens = 0 }

let memo_tokens c = c.c_memo_tokens

let predict_block_compiled c tokens =
  match Tokens.find c.c_memo tokens with
  | p ->
    Obs.Metrics.inc m_memo_hits;
    p
  | exception Not_found ->
    Obs.Metrics.inc m_memo_misses;
    let p = max 0.0 (Mlkit.Lstm.predict_into c.c_base.lstm c.c_scratch tokens).(0) in
    let n = Array.length tokens in
    if n <= memo_budget then begin
      if c.c_memo_tokens + n > memo_budget then begin
        Tokens.reset c.c_memo;
        c.c_memo_tokens <- 0
      end;
      Tokens.add c.c_memo (Array.copy tokens) p;
      c.c_memo_tokens <- c.c_memo_tokens + n
    end;
    p

let predict_element_compiled c elt =
  predict_prepared (predict_block_compiled c) (Prepare.prepare c.c_base.vocab elt)

(** Ground-truth per-block NIC compute counts for accuracy evaluation. *)
let ground_truth (elt : Ast.element) =
  let compiled = Nicsim.Nfcc.compile (Nf_frontend.Lower.lower_element elt) in
  Array.to_list (Array.map label compiled.Nicsim.Nfcc.cblocks)

(** Per-block WMAPE of the compute prediction on an element. *)
let wmape_on_element t elt =
  let preds = predict_element t elt in
  let truth = ground_truth elt in
  let p = Array.of_list (List.map (fun (_, c, _) -> c) preds) in
  let g = Array.of_list (List.map (fun (_, c, _) -> c) truth) in
  Mlkit.Metrics.wmape p g

(** Memory-count accuracy: how close the direct IR stateful-load/store
    count is to the NIC memory-op count (paper: 96.4-100%). *)
let memory_accuracy elt =
  let ir = Nf_frontend.Lower.lower_element elt in
  let ir_mem = float_of_int (Ir.count_stateful_mem ir) in
  let compiled = Nicsim.Nfcc.compile ir in
  let nic_mem = float_of_int (Nicsim.Nfcc.count_mem compiled) in
  if nic_mem = 0.0 then 1.0 else 1.0 -. (abs_float (ir_mem -. nic_mem) /. nic_mem)

(* -- Figure 8 baselines -- *)

(** Bag-of-words features for dense-model baselines: histogram of token
    counts plus the block length. *)
let bow_features vocab_size tokens =
  let h = Array.make (vocab_size + 1) 0.0 in
  Array.iter (fun tok -> h.(tok) <- h.(tok) +. 1.0) tokens;
  h.(vocab_size) <- float_of_int (Array.length tokens);
  h

type baseline = Dnn of Mlkit.Nn.mlp | Cnn1d of Mlkit.Cnn.t | Automl of Mlkit.Automl.fitted

let train_dnn (ds : dataset) =
  let v = Vocab.size ds.vocab in
  let xs = Array.map (fun e -> bow_features v e.tokens) ds.examples in
  let ys = Array.map (fun e -> [| e.nic_compute |]) ds.examples in
  let net = Mlkit.Nn.mlp_create (Util.Rng.create 71) ~in_dim:(v + 1) ~hidden:[ 32; 16 ] ~out_dim:1 in
  Mlkit.Nn.mlp_fit_regression ~epochs:25 net xs ys;
  Dnn net

let train_cnn (ds : dataset) =
  let cnn = Mlkit.Cnn.create ~vocab:(Vocab.size ds.vocab) 73 in
  Mlkit.Cnn.fit ~epochs:10 cnn (Array.map (fun e -> (e.tokens, [| e.nic_compute |])) ds.examples);
  Cnn1d cnn

let train_automl (ds : dataset) =
  let v = Vocab.size ds.vocab in
  let xs = Array.map (fun e -> bow_features v e.tokens) ds.examples in
  let ys = Array.map (fun e -> e.nic_compute) ds.examples in
  Automl (Mlkit.Automl.search_regression xs ys)

let baseline_predict vocab b tokens =
  match b with
  | Dnn net -> max 0.0 (Mlkit.Nn.mlp_predict net (bow_features (Vocab.size vocab) tokens)).(0)
  | Cnn1d cnn -> max 0.0 (Mlkit.Cnn.predict cnn tokens).(0)
  | Automl f -> max 0.0 (Mlkit.Automl.predict f (bow_features (Vocab.size vocab) tokens))

let baseline_wmape_on_element vocab b elt =
  let prep = Prepare.prepare vocab elt in
  let truth = ground_truth elt in
  let preds =
    List.map (fun (bi : Prepare.block_info) -> baseline_predict vocab b bi.Prepare.tokens) prep.Prepare.blocks
  in
  let g = Array.of_list (List.map (fun (_, c, _) -> c) truth) in
  Mlkit.Metrics.wmape (Array.of_list preds) g
