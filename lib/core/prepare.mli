(** Program preparation (§3.1): transform a legacy NF into the uniform IR,
    extract its CFG and API set, and slice it into analyzable code blocks —
    the entry step of Figure 3's PREDICTOFFLOADINGPERF. *)

(** One basic block of the prepared program. *)
type block_info = {
  bid : int;  (** block id in the lowered CFG *)
  src_sid : int;  (** source-statement attribution (see {!Nf_frontend.Lower}) *)
  tokens : int array;  (** compacted-vocabulary word indices *)
  ir_compute : int;  (** IR compute instructions in the block *)
  ir_mem_stateful : int;  (** stateful loads/stores (the paper's "memory") *)
  ir_mem_stateless : int;  (** stack-slot traffic, later register-allocated *)
  api_calls : string list;  (** concrete framework calls in this block *)
}

(** A prepared element. *)
type t = {
  elt : Nf_lang.Ast.element;
  ir : Nf_ir.Ir.func;
  blocks : block_info list;
  api_set : string list;  (** all framework calls — GETAPI, feeds reverse porting *)
}

(** Lower an element, build the CFG and encode every block against
    [vocab]: an analysis's one lowering, read by every later stage. *)
val prepare : Vocab.t -> Nf_lang.Ast.element -> t

(** {!prepare} through the retained pre-optimization builder and word
    derivation: identical output, the baseline `bench/main.exe parallel`
    runs on. *)
val prepare_reference : Vocab.t -> Nf_lang.Ast.element -> t

(** Direct memory-access estimate: stateful IR loads/stores, which map
    ~1:1 to NIC memory operations (96.4-100% in the paper, §3.2). *)
val memory_estimate : t -> int
