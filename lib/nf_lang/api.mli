(** Framework API registry and host-side semantics — the Click library
    calls a cross-porting developer must replace with SmartNIC built-ins
    (§3.3). *)

(** API classification used by the frontend and reverse porting. *)
type kind =
  | Pure_helper  (** hash/crc helpers and engine lookups: expression-level *)
  | Header_accessor  (** ip_header()/tcp_header()-style parsing calls *)
  | Checksum  (** checksum computation or update *)
  | Data_structure  (** HashMap/Vector operations *)
  | Packet_io  (** send/drop *)

(** Expression-level helpers the interpreter and frontend recognize. *)
val expr_apis : string list

(** Statement-level framework calls. *)
val stmt_apis : string list

(** Classify a base API name.  @raise Failure on unknown names. *)
val classify : string -> kind

(** One FNV-style mixing step. *)
val mix32 : int -> int -> int

(** FNV-style hash of the argument list. *)
val hash32 : int list -> int

(** Bitwise CRC32 (reflected, poly 0xEDB88320) over a byte slice. *)
val crc32_bytes : Bytes.t -> int -> int -> int

(** Bitwise CRC16 over a byte slice. *)
val crc16_bytes : Bytes.t -> int -> int -> int

(** Host evaluation of an expression-level API call; [time] is the virtual
    clock.  @raise Failure on unknown name/arity. *)
val eval_expr : time:int -> Packet.t -> string -> int list -> int

(** Host execution of a statement-level API call. *)
val exec_stmt : Packet.t -> string -> int list -> unit

(** [expr_fn name arity] is {!eval_expr} for that name and arity,
    resolved once: it takes the virtual clock, the packet and exactly
    [arity] argument values, and builds no list.  An unknown name or
    arity raises {!eval_expr}'s [Failure] when called, not here. *)
val expr_fn : string -> int -> int -> Packet.t -> int array -> int

(** {!exec_stmt} resolved once, as {!expr_fn} is. *)
val stmt_fn : string -> int -> Packet.t -> int array -> unit
