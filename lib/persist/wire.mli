(** Binary artifact framing for persisted Clara models.

    Every artifact is a single self-describing frame:

    {v
    offset  size  field
    0       8     magic "CLARAOBJ"
    8       2     format version, u16 LE (currently 1)
    10      1     component-tag length L
    11      L     component tag, e.g. "predictor"
    11+L    8     payload length N, i64 LE
    19+L    4     CRC-32 (IEEE) of the payload, u32 LE
    23+L    N     payload
    v}

    Readers validate in order: length (truncation), magic, version,
    component tag, payload CRC — and report the first failure as a typed
    {!error}, never an exception escaping to the caller of [unframe]. *)

(** Everything that can go wrong reading an artifact. *)
type error =
  | Io_error of string  (** file missing / unreadable *)
  | Truncated of { what : string; need : int; have : int }
      (** fewer bytes than the named field requires *)
  | Bad_magic of string  (** leading bytes are not the Clara magic *)
  | Bad_version of int  (** format version this build does not speak *)
  | Wrong_component of { expected : string; got : string }
      (** artifact holds a different component than requested *)
  | Crc_mismatch of { expected : int32; got : int32 }
      (** payload bytes do not hash to the stored checksum *)
  | Malformed of string  (** payload structure invalid after CRC passed *)

(** Raised by {!reader} primitives on payload overrun / bad tags; caught
    and converted to a [result] by every codec entry point. *)
exception Error of error

val error_to_string : error -> string

(** CRC-32 (IEEE 802.3 polynomial) of a string; [crc] seeds chained
    updates. *)
val crc32 : ?crc:int32 -> string -> int32

(** {1 Primitive writer} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val u8 : writer -> int -> unit
val i64 : writer -> int -> unit
val f64 : writer -> float -> unit
val str : writer -> string -> unit
val farr : writer -> float array -> unit
val fmat : writer -> float array array -> unit
val list_ : writer -> (writer -> 'a -> unit) -> 'a list -> unit

(** {1 Primitive reader} *)

type reader

val reader : string -> reader
val r_u8 : reader -> int
val r_i64 : reader -> int
val r_f64 : reader -> float
val r_str : reader -> string
val r_farr : reader -> float array
val r_fmat : reader -> float array array
val r_list : reader -> (reader -> 'a) -> 'a list

(** Fail with {!Malformed} unless the payload was fully consumed. *)
val r_end : reader -> unit

(** {1 Framing} *)

val format_version : int

(** Wrap a payload in the framed format under a component tag. *)
val frame : component:string -> string -> string

(** Validate and strip the frame, returning the payload. *)
val unframe : component:string -> string -> (string, error) result

(** {1 Files} *)

(** Atomic: bytes are written to [path ^ ".tmp"] and renamed over [path],
    so a crashed writer leaves any previous artifact intact.  An armed
    [persist.write] {!Obs.Fault} point simulates the crash (torn temp
    file, no rename, raises [Obs.Fault.Injected]). *)
val write_file : string -> string -> unit

(** [Io_error] on missing/unreadable files and on armed [persist.read]
    {!Obs.Fault} draws. *)
val read_file : string -> (string, error) result

(** [save ~component path payload] / [load ~component path]: framed file
    round trip. *)
val save : component:string -> string -> string -> unit

val load : component:string -> string -> (string, error) result
