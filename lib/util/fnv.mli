(** FNV-1a, 64-bit: the one byte-string hash the router's consistent-hash
    ring and the quality monitor's shadow sampling both use. *)

(** FNV-1a/64 of a string's bytes (offset basis [0xcbf29ce484222325],
    prime [0x100000001b3]). *)
val fnv1a64 : string -> int64
