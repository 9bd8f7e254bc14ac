(** Imperative IR construction helper used by the frontend: maintains a
    current block, fresh register numbering, and block creation with
    source-statement attribution.

    Blocks under construction store instructions in reverse execution
    order ([emit] is a constant-time prepend); [finish] restores execution
    order.  The type is abstract so mid-build access goes through
    {!block} / {!block_terminated} / {!append_terminator}, which respect
    that invariant. *)

type t

(** Fresh builder; the entry block carries [src_sid = 0] (once per
    packet). *)
val create : string -> t

val fresh_reg : t -> int

(** Append an instruction; returns [res] back for chaining. *)
val emit :
  t ->
  ?res:int ->
  op:Ir.op ->
  args:Ir.operand list ->
  ty:Ir.typ ->
  annot:Ir.annot ->
  unit ->
  int option

(** Emit with a fresh result register; returns the register. *)
val emit_value : t -> op:Ir.op -> args:Ir.operand list -> ty:Ir.typ -> annot:Ir.annot -> int

val emit_void : t -> op:Ir.op -> args:Ir.operand list -> ty:Ir.typ -> annot:Ir.annot -> unit

(** Open a new block attributed to source statement [sid] and make it
    current (not yet linked). *)
val start_block : t -> sid:int -> Ir.block

val current_bid : t -> int

(** The under-construction block with id [bid]; raises [Not_found] if no
    such block was started. *)
val block : t -> int -> Ir.block

(** The block created just before the current one (used to patch
    fall-through edges when opening loop headers). *)
val prev_block : t -> Ir.block option

(** Does an under-construction block already end in a terminator? *)
val block_terminated : Ir.block -> bool

(** Append an instruction (typically a terminator) to an
    under-construction block in execution order. *)
val append_terminator : Ir.block -> Ir.instr -> unit

(** Does the current block already end in a terminator? *)
val terminated : t -> bool

(** Terminators; each is a no-op when the block is already terminated. *)
val br : t -> int -> unit

val ret : t -> unit

(** Seal the function: order blocks by id, terminate stragglers with
    [Ret], restore execution order, and populate successor lists. *)
val finish : t -> Ir.func
