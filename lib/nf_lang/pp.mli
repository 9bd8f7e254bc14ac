(** Pretty-printer rendering an element as Click-flavored C++ source;
    used for human inspection, the LoC column of the Table-2 inventory
    and an inline program's flow key (the CRC of {!to_string}).  One
    walker prints every line into one buffer. *)

(** The element's source, lines separated by newlines. *)
val to_string : Ast.element -> string

(** Source-lines-of-code metric: the lines {!to_string} renders. *)
val loc : Ast.element -> int

(** One statement's rendered lines, each trimmed, joined by spaces. *)
val stmt_text : Ast.stmt -> string
