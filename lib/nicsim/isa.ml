(** SmartNIC instruction set, Netronome-NFP flavored.

    The flow-processing cores are simple RISC engines with a few quirks
    that make the IR→assembly mapping non-trivial (and therefore worth
    learning, §3.2):

    - ALU operations can fuse an operand shift ([Alu_shf]);
    - there is no single-cycle multiply: multiplies expand to [Mul_step]
      sequences;
    - immediates above 16 bits need a separate [Immed] instruction;
    - byte-field extraction/insertion ([Ld_field]) covers C zext/trunc and
      packet header slots held in transfer registers;
    - compares fuse with branches ([Br_cmp]);
    - memory operations name a symbol whose hierarchy level (and hence
      latency) is decided by data placement at run time. *)

type mem_dir = Read | Write

type op =
  | Alu  (** add/sub/and/or/xor on registers/small immediates *)
  | Alu_shf  (** ALU with fused operand shift *)
  | Shf  (** plain shift/rotate *)
  | Immed  (** materialize a large immediate *)
  | Ld_field  (** byte field extract/insert; packet/xfer register access *)
  | Mul_step  (** one step of a multi-step multiply *)
  | Mem of mem_dir * string  (** access to the named stateful structure *)
  | Local_mem of mem_dir  (** spilled-local access (per-core LMEM) *)
  | Br  (** branch (conditional branches are fused compare+branch) *)
  | Br_cmp  (** fused compare-and-branch *)
  | Csr  (** control/status register access (IO, doorbells) *)
  | Accel_call of string  (** hand-off to an ASIC accelerator *)
  | Nop

type instr = { op : op }

let mk op = { op }

(** Issue cost in core cycles, excluding memory wait time (added by the
    performance model from the placement). *)
let issue_cycles i =
  match i.op with
  | Alu | Alu_shf | Shf | Ld_field | Nop -> 1
  | Immed -> 1
  | Mul_step -> 1
  | Mem (_, _) -> 2  (* command formation; latency modeled separately *)
  | Local_mem _ -> 1
  | Br | Br_cmp -> 1
  | Csr -> 2
  | Accel_call _ -> 2

let is_mem i = match i.op with Mem (_, _) -> true | _ -> false
let is_local_mem i = match i.op with Local_mem _ -> true | _ -> false

let mem_target i = match i.op with Mem (_, g) -> Some g | _ -> None

(** "Compute instruction" in the paper's sense: everything the core's ALU
    pipeline executes, i.e. non-memory instructions. *)
let is_compute i = not (is_mem i || is_local_mem i)

(* counting folds: these run per compiled block in the dataset pipeline,
   so they avoid materializing the filtered lists *)
let count p instrs = List.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 instrs
let count_compute instrs = count is_compute instrs
let count_mem instrs = count is_mem instrs
let count_local_mem instrs = count is_local_mem instrs
