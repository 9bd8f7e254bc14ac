(** LLVM-flavored intermediate representation.

    The frontend lowers NF elements into this IR the way `clang -O0` would:
    SSA-numbered virtual registers for expression temporaries, and explicit
    stack slots (load/store) for named locals — the paper disables LLVM
    optimizations so the IR "stays as close to the original NF logic as
    possible" (§3.1).  Each instruction carries an annotation separating
    compute, stateless memory, stateful memory, packet accesses, and NF
    framework API calls, mirroring Figure 5. *)

type typ = I1 | I8 | I16 | I32 | I64 | Ptr

let typ_str = function I1 -> "i1" | I8 -> "i8" | I16 -> "i16" | I32 -> "i32" | I64 -> "i64" | Ptr -> "ptr"

let typ_of_width w = if w <= 1 then I1 else if w <= 8 then I8 else if w <= 16 then I16 else if w <= 32 then I32 else I64

type operand =
  | Reg of int  (** SSA virtual register *)
  | Imm of int  (** integer immediate *)
  | Global of string  (** address of a stateful global structure *)
  | Slot of string  (** stack slot of a named local (alloca'd) *)
  | Hdr of string  (** packet header field location, name kept concrete *)
  | Payload  (** packet payload base *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

let cmp_str = function Ceq -> "eq" | Cne -> "ne" | Clt -> "ult" | Cle -> "ule" | Cgt -> "ugt" | Cge -> "uge"

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

type annot =
  | Compute
  | Mem_stateless  (** stack-slot traffic; candidates for register allocation *)
  | Mem_stateful of string  (** global state traffic: the paper's "memory accesses" *)
  | Mem_packet  (** header/payload access, held in transfer registers on the NIC *)
  | Api of string  (** framework call needing reverse porting *)
  | Control

type instr = { res : int option; op : op; args : operand list; ty : typ; annot : annot }

type block = {
  bid : int;
  src_sid : int;  (** leader source-statement id; -1 for synthetic blocks *)
  mutable instrs : instr list;  (** in execution order *)
  mutable succs : int list;
}

type func = { fname : string; blocks : block array }

(* -- Queries -- *)

let is_terminator i = match i.op with Br _ | Cond_br _ | Ret -> true | _ -> false

let opcode_str = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Icmp c -> "icmp " ^ cmp_str c
  | Zext -> "zext"
  | Trunc -> "trunc"
  | Select -> "select"
  | Load -> "load"
  | Store -> "store"
  | Gep -> "getelementptr"
  | Call f -> "call @" ^ f
  | Br _ -> "br"
  | Cond_br _ -> "br i1"
  | Ret -> "ret"

let operand_str = function
  | Reg r -> Printf.sprintf "%%%d" r
  | Imm n -> string_of_int n
  | Global g -> "@" ^ g
  | Slot s -> "%slot." ^ s
  | Hdr f -> "%hdr." ^ f
  | Payload -> "%payload"

let instr_str i =
  let lhs = match i.res with Some r -> Printf.sprintf "%%%d = " r | None -> "" in
  let args = String.concat ", " (List.map operand_str i.args) in
  let targets =
    match i.op with
    | Br b -> Printf.sprintf " label %%bb%d" b
    | Cond_br (t, f) -> Printf.sprintf ", label %%bb%d, label %%bb%d" t f
    | _ -> ""
  in
  Printf.sprintf "%s%s %s %s%s" lhs (opcode_str i.op) (typ_str i.ty) args targets

let block_str b =
  let header = Printf.sprintf "bb%d:  ; sid=%d" b.bid b.src_sid in
  String.concat "\n" (header :: List.map (fun i -> "  " ^ instr_str i) b.instrs)

let func_str f =
  let blocks = Array.to_list (Array.map block_str f.blocks) in
  String.concat "\n" ((Printf.sprintf "define void @%s(ptr %%pkt) {" f.fname :: blocks) @ [ "}" ])

(* -- Statistics used throughout Clara -- *)

let fold_instrs f acc func =
  Array.fold_left (fun acc b -> List.fold_left f acc b.instrs) acc func.blocks

let count_if p func = fold_instrs (fun acc i -> if p i then acc + 1 else acc) 0 func

let count_compute func =
  count_if (fun i -> match i.annot with Compute -> true | _ -> false) func

(** Stateful memory instructions — the "Mem" column of Table 2. *)
let count_stateful_mem func =
  count_if (fun i -> match i.annot with Mem_stateful _ -> true | _ -> false) func

let count_stateless_mem func =
  count_if (fun i -> match i.annot with Mem_stateless -> true | _ -> false) func

let count_api func = count_if (fun i -> match i.annot with Api _ -> true | _ -> false) func

let count_total func = count_if (fun _ -> true) func

let block func bid =
  if bid < 0 || bid >= Array.length func.blocks then invalid_arg "Ir.block: bad id";
  func.blocks.(bid)

(** Opcode universe used for opcode-distribution histograms (Table 1). *)
let opcode_index i =
  match i.op with
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | And -> 3
  | Or -> 4
  | Xor -> 5
  | Shl -> 6
  | Lshr -> 7
  | Icmp _ -> 8
  | Zext -> 9
  | Trunc -> 10
  | Select -> 11
  | Load -> 12
  | Store -> 13
  | Gep -> 14
  | Call _ -> 15
  | Br _ -> 16
  | Cond_br _ -> 17
  | Ret -> 18

let opcode_cardinality = 19

let opcode_histogram funcs =
  let h = Array.make opcode_cardinality 0.0 in
  List.iter
    (fun f -> ignore (fold_instrs (fun () i -> h.(opcode_index i) <- h.(opcode_index i) +. 1.0) () f))
    funcs;
  h
