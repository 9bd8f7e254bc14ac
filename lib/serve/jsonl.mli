(** Minimal JSON for the line-delimited insight-server protocol.

    Self-contained (the container carries no JSON library): a value type,
    a recursive-descent parser and a printer whose output never contains a
    raw newline — every value prints on one line, so values frame cleanly
    as [value ^ "\n"] on the wire. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** One-line rendering; control characters in strings are escaped. *)
val to_string : t -> string

(** Parse a complete JSON document (trailing whitespace allowed).  Never
    raises: every malformed input (and every armed [jsonl.parse]
    {!Obs.Fault} draw) is an [Error]. *)
val of_string : string -> (t, string) result

(** {!of_string} with the two failure causes told apart: [`Injected]
    when the armed [jsonl.parse] point fired (the text was never read),
    [`Malformed] when the text itself does not parse.  The serving plane
    classifies its error replies by this cause, never by message text. *)
val parse : string -> (t, [ `Malformed of string | `Injected of string ]) result

(** Object field lookup ([None] on non-objects and missing keys). *)
val member : string -> t -> t option

(** [member] narrowed to a string / a float. *)
val str_member : string -> t -> string option

val num_member : string -> t -> float option

(** Best-effort scalar-member extraction from possibly-{b malformed} text:
    finds the quoted [key] at object depth 1 (never inside a string value)
    and parses the scalar after the ':'.  Used to echo the request [id] in
    error replies when the request line itself does not parse; [None] when
    the key or a parseable scalar value cannot be found. *)
val salvage_member : string -> string -> t option
