(** Imperative IR construction helper used by the frontend.

    Maintains a current block, fresh register numbering, and block creation
    with source-statement attribution.  Terminators are added explicitly;
    [finish] seals the function and derives successor edges.

    While a function is under construction every block stores its
    instructions in {e reverse} execution order, so [emit] is a constant
    prepend and the terminator checks are head inspections instead of the
    quadratic append / [List.rev] the naive representation forces.
    [finish] restores execution order once per block.  Mid-build access
    therefore goes through {!block} / {!block_terminated} /
    {!append_terminator}, which keep the invariant hidden from callers. *)

type t = {
  fname : string;
  mutable blocks : Ir.block list;  (** reverse creation order *)
  mutable current : Ir.block;
  mutable next_reg : int;
  mutable next_bid : int;
  by_bid : (int, Ir.block) Hashtbl.t;
}

let create fname =
  (* entry block executes once per packet: src_sid = 0 by convention *)
  let entry = { Ir.bid = 0; src_sid = 0; instrs = []; succs = [] } in
  let by_bid = Hashtbl.create 16 in
  Hashtbl.replace by_bid 0 entry;
  { fname; blocks = [ entry ]; current = entry; next_reg = 1; next_bid = 1; by_bid }

let fresh_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

(** Append an instruction to the current block and return its result reg. *)
let emit t ?res ~op ~args ~ty ~annot () =
  let instr = { Ir.res; op; args; ty; annot } in
  t.current.instrs <- instr :: t.current.instrs;
  res

let emit_value t ~op ~args ~ty ~annot =
  let r = fresh_reg t in
  ignore (emit t ~res:r ~op ~args ~ty ~annot ());
  r

let emit_void t ~op ~args ~ty ~annot = ignore (emit t ~op ~args ~ty ~annot ())

(** Open a new block attributed to source statement [sid] and make it
    current.  Does not link it; use terminators for that. *)
let start_block t ~sid =
  let b = { Ir.bid = t.next_bid; src_sid = sid; instrs = []; succs = [] } in
  t.next_bid <- t.next_bid + 1;
  t.blocks <- b :: t.blocks;
  t.current <- b;
  Hashtbl.replace t.by_bid b.Ir.bid b;
  b

let current_bid t = t.current.Ir.bid

(** The block with id [bid]; it must exist. *)
let block t bid = Hashtbl.find t.by_bid bid

(** The block created just before the current one, if any. *)
let prev_block t = match t.blocks with _current :: prev :: _ -> Some prev | _ -> None

(** Does an under-construction block already end in a terminator? *)
let block_terminated (b : Ir.block) =
  match b.Ir.instrs with i :: _ -> Ir.is_terminator i | [] -> false

(** Append [instr] to an under-construction block in execution order. *)
let append_terminator (b : Ir.block) instr = b.Ir.instrs <- instr :: b.Ir.instrs

(** True when the current block already ends in a terminator. *)
let terminated t = block_terminated t.current

let br t target =
  if not (terminated t) then
    emit_void t ~op:(Ir.Br target) ~args:[] ~ty:Ir.I32 ~annot:Ir.Control

let ret t = if not (terminated t) then emit_void t ~op:Ir.Ret ~args:[] ~ty:Ir.I32 ~annot:Ir.Control

(** Seal the function: order blocks by id, ensure every block is terminated
    (falling through to [Ret]), restore execution order and populate
    successor lists. *)
let finish t =
  (* Terminate the final current block. *)
  ret t;
  let blocks = List.sort (fun a b -> compare a.Ir.bid b.Ir.bid) t.blocks in
  let arr = Array.of_list blocks in
  Array.iter
    (fun b ->
      (* A block left unterminated (e.g. an empty join block) falls through
         to a Ret for safety. *)
      if not (block_terminated b) then
        append_terminator b
          { Ir.res = None; op = Ir.Ret; args = []; ty = Ir.I32; annot = Ir.Control };
      b.Ir.instrs <- List.rev b.Ir.instrs;
      let succs =
        List.concat_map
          (fun i ->
            match i.Ir.op with
            | Ir.Br target -> [ target ]
            | Ir.Cond_br (a, b) -> [ a; b ]
            | _ -> [])
          b.Ir.instrs
      in
      b.Ir.succs <- List.sort_uniq compare succs)
    arr;
  { Ir.fname = t.fname; blocks = arr }
