(** IR well-formedness verifier.

    Checks the invariants the rest of the toolchain relies on: every block
    ends in exactly one terminator, successor edges match the terminators
    and point at existing blocks, registers are defined before use along
    the block-creation order (the frontend emits code in a linearized
    order, so definitions always precede uses textually), and annotations
    are consistent with opcodes.  Returns a list of violations; an empty
    list means the function is well-formed. *)

type violation = { block : int; message : string }

let violation block fmt = Printf.ksprintf (fun message -> { block; message }) fmt

let check (f : Ir.func) : violation list =
  let problems = ref [] in
  let add v = problems := v :: !problems in
  let n_blocks = Array.length f.Ir.blocks in
  let defined = Hashtbl.create 64 in
  (* collect all definitions first: the builder numbers registers globally,
     and code is emitted in linear order, so a use in a later block of a reg
     defined in an earlier block is legal *)
  Array.iteri
    (fun bi b ->
      if b.Ir.bid <> bi then add (violation bi "block id %d at index %d" b.Ir.bid bi);
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.res with Some r -> Hashtbl.replace defined r () | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  Array.iter
    (fun b ->
      let bi = b.Ir.bid in
      (* terminator discipline *)
      (match List.rev b.Ir.instrs with
      | [] -> add (violation bi "empty block")
      | last :: _ when not (Ir.is_terminator last) -> add (violation bi "missing terminator")
      | _ -> ());
      let terminators = List.filter Ir.is_terminator b.Ir.instrs in
      if List.length terminators > 1 then
        add (violation bi "%d terminators" (List.length terminators));
      (* successor edges match the terminator *)
      let expected =
        List.concat_map
          (fun (i : Ir.instr) ->
            match i.Ir.op with
            | Ir.Br t -> [ t ]
            | Ir.Cond_br (a, c) -> [ a; c ]
            | _ -> [])
          b.Ir.instrs
        |> List.sort_uniq compare
      in
      if expected <> b.Ir.succs then
        add (violation bi "successor list does not match terminators");
      List.iter
        (fun s -> if s < 0 || s >= n_blocks then add (violation bi "edge to missing block %d" s))
        b.Ir.succs;
      (* register uses are defined somewhere; annotation sanity *)
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (function
              | Ir.Reg r when not (Hashtbl.mem defined r) ->
                add (violation bi "use of undefined register %%%d" r)
              | Ir.Reg _ | Ir.Imm _ | Ir.Global _ | Ir.Slot _ | Ir.Hdr _ | Ir.Payload -> ())
            i.Ir.args;
          match (i.Ir.op, i.Ir.annot) with
          | (Ir.Load | Ir.Store), Ir.Compute ->
            add (violation bi "memory opcode annotated as compute")
          | (Ir.Br _ | Ir.Cond_br _ | Ir.Ret), a when a <> Ir.Control ->
            add (violation bi "terminator with non-control annotation")
          | Ir.Call _, a -> (
            match a with
            | Ir.Api _ -> ()
            | _ -> add (violation bi "call without API annotation"))
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  List.rev !problems
