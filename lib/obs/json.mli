(** JSON string escaping for every JSON writer in the tree: the Obs
    documents (log lines, spans, series, profiles, flight dumps), the
    serving protocol's replies ({!Serve.Jsonl}), pre-rendered flow
    entries ({!Fastpath.Entry}) and replay reports.  One definition, so
    a reply rendered on the fast path and on the slow path can never
    disagree on a byte. *)

(** Append [s] with the JSON string escapes applied (no surrounding
    quotes): backslash-escaped quote and backslash, the short forms for
    newline, carriage return and tab, and a [u00XX] escape for every
    other control character.  Bytes [>= 0x20] pass through unchanged, so
    UTF-8 text stays UTF-8. *)
val add_escaped : Buffer.t -> string -> unit
