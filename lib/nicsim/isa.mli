(** SmartNIC instruction set, Netronome-NFP flavored.

    The quirks that make the IR→assembly mapping non-trivial: fused
    shift-ALU ops, multi-step multiplies, magnitude-dependent immediates,
    byte-field moves covering zext/trunc and packet access, fused
    compare-branches, and memory operations whose latency is decided by
    data placement at run time. *)

type mem_dir = Read | Write

type op =
  | Alu  (** add/sub/and/or/xor on registers or small immediates *)
  | Alu_shf  (** ALU with fused operand shift *)
  | Shf  (** plain shift/rotate *)
  | Immed  (** materialize a large immediate *)
  | Ld_field  (** byte-field extract/insert; packet/xfer register access *)
  | Mul_step  (** one step of a multi-step multiply *)
  | Mem of mem_dir * string  (** access to the named stateful structure *)
  | Local_mem of mem_dir  (** spilled-local access (per-core LMEM) *)
  | Br  (** branch *)
  | Br_cmp  (** fused compare-and-branch *)
  | Csr  (** control/status register access (IO, doorbells) *)
  | Accel_call of string  (** hand-off to an ASIC accelerator *)
  | Nop

type instr = { op : op }

val mk : op -> instr

(** Issue cost in core cycles, excluding memory wait time (the performance
    model adds that from the placement). *)
val issue_cycles : instr -> int

(** Access to a named stateful structure (or the packet buffer)? *)
val is_mem : instr -> bool

(** Spilled-local (LMEM) access? *)
val is_local_mem : instr -> bool

(** The structure a memory operation targets. *)
val mem_target : instr -> string option

(** "Compute instruction" in the paper's sense: everything executed by the
    core pipeline, i.e. non-memory instructions. *)
val is_compute : instr -> bool

val count_compute : instr list -> int
val count_mem : instr list -> int
val count_local_mem : instr list -> int
