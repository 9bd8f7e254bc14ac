(** LLVM-flavored intermediate representation (§3.1).

    The frontend lowers NF elements the way `clang -O0` would: SSA-numbered
    virtual registers for temporaries and explicit stack slots for named
    locals.  Each instruction carries an annotation separating compute,
    stateless memory, stateful memory, packet accesses, and framework API
    calls (Figure 5's coloring). *)

type typ = I1 | I8 | I16 | I32 | I64 | Ptr

val typ_str : typ -> string

(** Smallest integer type holding [width] bits. *)
val typ_of_width : int -> typ

type operand =
  | Reg of int  (** SSA virtual register *)
  | Imm of int  (** integer immediate *)
  | Global of string  (** address of a stateful structure *)
  | Slot of string  (** stack slot of a named local *)
  | Hdr of string  (** packet header field location; names stay concrete *)
  | Payload  (** packet payload base *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

val cmp_str : cmp -> string

type op =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Icmp of cmp
  | Zext
  | Trunc
  | Select
  | Load
  | Store
  | Gep  (** address arithmetic: base + scaled index *)
  | Call of string
  | Br of int  (** unconditional branch to block id *)
  | Cond_br of int * int  (** conditional branch: (then, else) *)
  | Ret

(** Instruction classification (Figure 5). *)
type annot =
  | Compute
  | Mem_stateless  (** stack-slot traffic; register-allocation candidates *)
  | Mem_stateful of string  (** global state traffic: the paper's "memory" *)
  | Mem_packet  (** header/payload access *)
  | Api of string  (** framework call needing reverse porting *)
  | Control

type instr = { res : int option; op : op; args : operand list; ty : typ; annot : annot }

type block = {
  bid : int;
  src_sid : int;
      (** leader source-statement id: 0 = per-packet entry, positive =
          statement id, [-(sid+1)] = loop header of statement [sid],
          -1 = synthetic tail *)
  mutable instrs : instr list;  (** in execution order *)
  mutable succs : int list;
}

type func = { fname : string; blocks : block array }

val is_terminator : instr -> bool

(** {1 Printing} *)

val opcode_str : op -> string
val operand_str : operand -> string
val instr_str : instr -> string
val block_str : block -> string
val func_str : func -> string

(** {1 Statistics} *)

val fold_instrs : ('a -> instr -> 'a) -> 'a -> func -> 'a
val count_if : (instr -> bool) -> func -> int
val count_compute : func -> int

(** Stateful memory instructions — the "Mem" column of Table 2. *)
val count_stateful_mem : func -> int

val count_stateless_mem : func -> int
val count_api : func -> int
val count_total : func -> int

(** Block by id.  @raise Invalid_argument out of range. *)
val block : func -> int -> block

(** {1 Opcode histograms (Table 1)} *)

val opcode_index : instr -> int
val opcode_cardinality : int
val opcode_histogram : func list -> float array
