(** Abstract syntax for Click-style network function elements — the
    unported input format Clara analyzes.  An element owns stateful
    declarations (scalars, arrays, hash maps, vectors) and a packet
    handler written against a framework API, mirroring Click's
    [Element::simple_action] model. *)

(** Packet header fields addressable by NF programs. *)
type header_field =
  | Eth_type
  | Ip_src
  | Ip_dst
  | Ip_proto
  | Ip_ttl
  | Ip_len
  | Ip_hl
  | Ip_tos
  | Ip_id
  | Ip_csum
  | Tcp_sport
  | Tcp_dport
  | Tcp_seq
  | Tcp_ack
  | Tcp_off
  | Tcp_flags
  | Tcp_win
  | Tcp_csum
  | Udp_sport
  | Udp_dport
  | Udp_len
  | Udp_csum

(** Field width in bits. *)
val field_width : header_field -> int

(** Protocol layer a field belongs to; drives the materialization of
    framework [x_header()] accessor calls during lowering. *)
type proto = Eth | Ip | Tcp | Udp

val field_proto : header_field -> proto
val field_name : header_field -> string

type binop = Add | Sub | Mul | BAnd | BOr | BXor | Shl | Shr
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int  (** integer literal *)
  | Local of string  (** stateless per-packet local variable *)
  | Global of string  (** stateful scalar global *)
  | Hdr of header_field  (** packet header field read *)
  | Payload_byte of expr  (** payload byte at offset *)
  | Packet_len  (** total packet length in bytes *)
  | Bin of binop * expr * expr
  | Cmp of cmpop * expr * expr
  | Not of expr
  | And_also of expr * expr  (** short-circuit && *)
  | Or_else of expr * expr  (** short-circuit || *)
  | Arr_get of string * expr  (** stateful array element read *)
  | Vec_len of string  (** current length of a stateful vector *)
  | Api_expr of string * expr list  (** pure framework helper *)

(** Statements carry a unique id [sid] assigned by {!Build}; the
    interpreter profiles execution per sid and the frontend maps sids to
    IR blocks — the bridge giving workload-specific block execution
    counts. *)
type stmt = { sid : int; node : node }

and node =
  | Let of string * expr  (** define or assign a local *)
  | Set_global of string * expr
  | Set_hdr of header_field * expr
  | Set_payload of expr * expr  (** payload[off] <- byte *)
  | Arr_set of string * expr * expr
  | Map_find of string * expr list * string
      (** [Map_find (map, key, dst)]: probe [map]; [dst] <- found flag;
          positions the map cursor *)
  | Map_read of string * string * string
      (** [Map_read (map, field, dst)]: read a value field at the cursor *)
  | Map_write of string * string * expr  (** write a value field at the cursor *)
  | Map_insert of string * expr list * expr list
      (** insert (key fields, value fields); positions the cursor *)
  | Map_erase of string  (** delete the entry at the cursor *)
  | Vec_append of string * expr
  | Vec_get of string * expr * string  (** dst local <- vec[idx] *)
  | Vec_set of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list  (** bounded by interpreter fuel *)
  | For of string * expr * expr * stmt list  (** [For (i, lo, hi, body)]: i in [lo, hi) *)
  | Api_stmt of string * expr list  (** framework side effect *)
  | Emit of int  (** send the packet out of a port; ends processing *)
  | Drop  (** kill the packet; ends processing *)
  | Call_sub of string  (** subroutine call; inlined during lowering *)
  | Return  (** early exit from the handler *)

(** Stateful structure declarations. *)
type state_decl =
  | Scalar of { name : string; width : int; init : int }
  | Array of { name : string; width : int; length : int }
  | Map of {
      name : string;
      key_widths : int list;
      val_fields : (string * int) list;
      capacity : int;
    }
  | Vector of { name : string; elem_width : int; capacity : int }

val state_name : state_decl -> string

(** Footprint in bytes, used by the state-placement ILP. *)
val state_size_bytes : state_decl -> int

(** A Click-style element. *)
type element = {
  name : string;
  state : state_decl list;
  subs : (string * stmt list) list;  (** subroutines, inlined by the frontend *)
  handler : stmt list;
}

val find_state : element -> string -> state_decl option
val is_stateful : element -> bool
