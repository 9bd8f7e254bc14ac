(** IR well-formedness verifier: terminator discipline, successor-edge
    consistency, define-before-use of registers, and annotation/opcode
    coherence.  An empty violation list means the function is
    well-formed. *)

type violation = { block : int; message : string }

(** All violations in a function. *)
val check : Ir.func -> violation list
