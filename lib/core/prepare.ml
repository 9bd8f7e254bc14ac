(** Program preparation (§3.1): transform a legacy NF into the uniform IR,
    extract its CFG and API set, and slice it into analyzable code blocks.
    This is the entry step of Figure 3's PREDICTOFFLOADINGPERF. *)

open Nf_lang
open Nf_ir

type block_info = {
  bid : int;
  src_sid : int;
  tokens : int array;  (** compacted-vocabulary word indices *)
  ir_compute : int;
  ir_mem_stateful : int;
  ir_mem_stateless : int;
  api_calls : string list;  (** concrete call names in this block *)
}

type t = {
  elt : Ast.element;
  ir : Ir.func;
  blocks : block_info list;
  api_set : string list;  (** all framework calls, for reverse porting *)
}

let block_api_calls (b : Ir.block) =
  List.filter_map
    (fun (i : Ir.instr) ->
      match (i.Ir.op, i.Ir.annot) with Ir.Call n, Ir.Api _ -> Some n | _ -> None)
    b.Ir.instrs

let count_annot b p =
  List.fold_left (fun acc (i : Ir.instr) -> if p i.Ir.annot then acc + 1 else acc) 0 b.Ir.instrs

(* The one block-info builder: [encode] derives a block's tokens. *)
let blocks_of ~encode (ir : Ir.func) =
  Array.to_list
    (Array.map
       (fun b ->
         {
           bid = b.Ir.bid;
           src_sid = b.Ir.src_sid;
           tokens = encode b;
           ir_compute = count_annot b (function Ir.Compute -> true | _ -> false);
           ir_mem_stateful = count_annot b (function Ir.Mem_stateful _ -> true | _ -> false);
           ir_mem_stateless = count_annot b (function Ir.Mem_stateless -> true | _ -> false);
           api_calls = block_api_calls b;
         })
       ir.Ir.blocks)

(** Prepare an element: lower, build the CFG, encode each block against the
    given vocabulary.  This is the analysis's one lowering: every later
    stage reads [ir] and [blocks]. *)
let prepare (vocab : Vocab.t) (elt : Ast.element) : t =
  Obs.Span.with_ ~cat:"pipeline" "prepare" @@ fun () ->
  let ir = Obs.Span.with_ ~cat:"pipeline" "lower" (fun () -> Nf_frontend.Lower.lower_element elt) in
  let blocks =
    Obs.Span.with_ ~cat:"pipeline" "vocab.encode" (fun () ->
        blocks_of ~encode:(Vocab.encode_block vocab) ir)
  in
  { elt; ir; blocks; api_set = Nf_frontend.Lower.api_set ir }

(** {!prepare} through the retained pre-optimization components: the
    quadratic builder ({!Nf_frontend.Lower.Reference}) and
    [String.concat]-based word derivation.  Identical output; the
    baseline `bench/main.exe parallel` runs on this. *)
let prepare_reference (vocab : Vocab.t) (elt : Ast.element) : t =
  let ir = Nf_frontend.Lower.Reference.lower_element elt in
  let blocks = blocks_of ~encode:(Vocab.encode_block_with ~word:Vocab.word_reference vocab) ir in
  { elt; ir; blocks; api_set = Nf_frontend.Lower.api_set ir }

(** Direct memory-access count for the whole element: stateful loads/stores
    at the IR level, which the paper shows map ~1:1 to NIC memory ops. *)
let memory_estimate t = Ir.count_stateful_mem t.ir
