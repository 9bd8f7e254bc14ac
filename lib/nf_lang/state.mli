(** Runtime store for stateful NF data structures, with the paper's two
    framework semantics (§3.3): [Host] is Click (elastic maps with linear
    probing, growing vectors); [Nic] is Netronome (fixed buckets with
    bounded slots, mark-invalid deletes, capped vectors).  Every operation
    reports its memory probes for workload-specific cost attribution. *)

type mode = Host | Nic

type entry = { key : int array; mutable vals : int array; mutable valid : bool }

type map_state = {
  m_name : string;
  m_mode : mode;
  val_names : string array;
  mutable slots : entry option array;
  mutable m_size : int;
  mutable cursor : int;  (** slot of the last successful find/insert *)
  bucket_slots : int;  (** Nic mode: slots per bucket *)
  buckets : int;  (** Nic mode: bucket count, fixed (NIC maps never grow) *)
}

type vec_state = {
  v_name : string;
  v_mode : mode;
  mutable data : int array;
  mutable v_len : int;
  v_capacity : int;
}

type t = {
  scalars : (string, int ref) Hashtbl.t;
  arrays : (string, int array) Hashtbl.t;
  maps : (string, map_state) Hashtbl.t;
  vectors : (string, vec_state) Hashtbl.t;
  mode : mode;
}

(** Slots per bucket in NIC mode (the fixed probe bound). *)
val nic_bucket_slots : int

(** Deterministic key hash. *)
val hash_key : int array -> int

(** Allocate the store for an element's declarations. *)
val create : ?mode:mode -> Ast.state_decl list -> t

(** Lookups by name.  @raise Failure on unknown names. *)
val scalar_ref : t -> string -> int ref

val array_of : t -> string -> int array
val map_of : t -> string -> map_state
val vec_of : t -> string -> vec_state

(** [find m key] = (found, probes); positions the cursor on success. *)
val find : map_state -> int array -> bool * int

(** {!find} without the tuple: the outcome packed in one int, read back
    with {!lookup_found} and {!lookup_probes}.  The lookup keeps no
    reference to [key], so a caller may reuse the array. *)
val lookup : map_state -> int array -> int

val lookup_found : int -> bool
val lookup_probes : int -> int

(** [insert m key vals] returns probes; NIC-mode bucket overflow silently
    drops the insert, as a fixed firmware table would.  The map keeps no
    reference to [key] or [vals] (a new entry holds copies, an update
    copies the values in), so a caller may reuse both arrays. *)
val insert : map_state -> int array -> int array -> int

(** Read/write a value field at the cursor (0 / no-op when invalid). *)
val read : map_state -> string -> int

val write : map_state -> string -> int -> unit

(** Erase at cursor: Host frees the slot; Nic only marks it invalid. *)
val erase : map_state -> unit

val map_size : map_state -> int

(** Vector operations; Host grows on demand, Nic is capacity-capped. *)
val vec_append : vec_state -> int -> unit

val vec_get : vec_state -> int -> int
val vec_set : vec_state -> int -> int -> unit
val vec_length : vec_state -> int
