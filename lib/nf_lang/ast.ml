(** Abstract syntax for Click-style network function elements.

    This is the unported input format that Clara analyzes: an element owns
    stateful declarations (scalars, arrays, hash maps, vectors) and a packet
    handler written against a framework API (header accessors, checksum
    helpers, map/vector operations).  The shape deliberately mirrors the
    Click `Element::simple_action` programming model used by the paper. *)

(** Packet header fields addressable by NF programs.  Widths are in bits. *)
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

let field_width = function
  | Eth_type -> 16
  | Ip_src | Ip_dst -> 32
  | Ip_proto | Ip_ttl | Ip_hl | Ip_tos -> 8
  | Ip_len | Ip_id | Ip_csum -> 16
  | Tcp_sport | Tcp_dport | Tcp_win | Tcp_csum -> 16
  | Tcp_seq | Tcp_ack -> 32
  | Tcp_off | Tcp_flags -> 8
  | Udp_sport | Udp_dport | Udp_len | Udp_csum -> 16

(** Protocol layer a field belongs to; used to materialize framework
    [x_header()] accessor calls during lowering. *)
type proto = Eth | Ip | Tcp | Udp

let field_proto = function
  | Eth_type -> Eth
  | Ip_src | Ip_dst | Ip_proto | Ip_ttl | Ip_len | Ip_hl | Ip_tos | Ip_id | Ip_csum -> Ip
  | Tcp_sport | Tcp_dport | Tcp_seq | Tcp_ack | Tcp_off | Tcp_flags | Tcp_win | Tcp_csum -> Tcp
  | Udp_sport | Udp_dport | Udp_len | Udp_csum -> Udp

let field_name = function
  | Eth_type -> "eth_type"
  | Ip_src -> "ip_src"
  | Ip_dst -> "ip_dst"
  | Ip_proto -> "ip_proto"
  | Ip_ttl -> "ip_ttl"
  | Ip_len -> "ip_len"
  | Ip_hl -> "ip_hl"
  | Ip_tos -> "ip_tos"
  | Ip_id -> "ip_id"
  | Ip_csum -> "ip_csum"
  | Tcp_sport -> "tcp_sport"
  | Tcp_dport -> "tcp_dport"
  | Tcp_seq -> "tcp_seq"
  | Tcp_ack -> "tcp_ack"
  | Tcp_off -> "tcp_off"
  | Tcp_flags -> "tcp_flags"
  | Tcp_win -> "tcp_win"
  | Tcp_csum -> "tcp_csum"
  | Udp_sport -> "udp_sport"
  | Udp_dport -> "udp_dport"
  | Udp_len -> "udp_len"
  | Udp_csum -> "udp_csum"

type binop = Add | Sub | Mul | BAnd | BOr | BXor | Shl | Shr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int  (** integer literal *)
  | Local of string  (** stateless per-packet local variable *)
  | Global of string  (** stateful scalar global *)
  | Hdr of header_field  (** packet header field read *)
  | Payload_byte of expr  (** packet payload byte at offset *)
  | Packet_len  (** total packet length in bytes *)
  | Bin of binop * expr * expr
  | Cmp of cmpop * expr * expr
  | Not of expr
  | And_also of expr * expr  (** short-circuit && *)
  | Or_else of expr * expr  (** short-circuit || *)
  | Arr_get of string * expr  (** stateful array element read *)
  | Vec_len of string  (** current length of a stateful vector *)
  | Api_expr of string * expr list
      (** pure framework helper, e.g. "hash32", "crc32_step", "rand16" *)

(** Statements carry a unique id [sid] assigned by {!Build}; the interpreter
    profiles execution per sid and the frontend maps sids to IR blocks, which
    is how workload-specific block execution counts are obtained. *)
type stmt = { sid : int; node : node }

and node =
  | Let of string * expr  (** define or assign a local *)
  | Set_global of string * expr
  | Set_hdr of header_field * expr
  | Set_payload of expr * expr  (** payload[off] <- byte *)
  | Arr_set of string * expr * expr
  | Map_find of string * expr list * string
      (** [Map_find (map, key, dst)]: probe [map]; set local [dst] to 1 if
          found (and position the map cursor) else 0 *)
  | Map_read of string * string * string
      (** [Map_read (map, field, dst)]: read value [field] at cursor *)
  | Map_write of string * string * expr  (** write value field at cursor *)
  | Map_insert of string * expr list * expr list
      (** insert (key fields, value fields); positions cursor *)
  | Map_erase of string  (** delete the entry at cursor *)
  | Vec_append of string * expr
  | Vec_get of string * expr * string  (** dst local <- vec[idx] *)
  | Vec_set of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list  (** bounded by interpreter fuel *)
  | For of string * expr * expr * stmt list
      (** [For (i, lo, hi, body)]: i from lo to hi-1 *)
  | Api_stmt of string * expr list
      (** framework side effect, e.g. "checksum_update_ip" *)
  | Emit of int  (** send packet out of port *)
  | Drop
  | Call_sub of string  (** subroutine call; inlined during lowering *)
  | Return  (** early exit from the handler *)

type state_decl =
  | Scalar of { name : string; width : int; init : int }
  | Array of { name : string; width : int; length : int }
  | Map of { name : string; key_widths : int list; val_fields : (string * int) list; capacity : int }
  | Vector of { name : string; elem_width : int; capacity : int }

let state_name = function
  | Scalar { name; _ } | Array { name; _ } | Map { name; _ } | Vector { name; _ } -> name

(** Footprint in bytes, used by the state-placement ILP. *)
let state_size_bytes = function
  | Scalar { width; _ } -> max 1 (width / 8)
  | Array { width; length; _ } -> max 1 (width / 8) * length
  | Map { key_widths; val_fields; capacity; _ } ->
    let entry =
      List.fold_left (fun acc w -> acc + max 1 (w / 8)) 0 key_widths
      + List.fold_left (fun acc (_, w) -> acc + max 1 (w / 8)) 0 val_fields
      + 4 (* occupancy/valid word *)
    in
    entry * capacity
  | Vector { elem_width; capacity; _ } -> max 1 (elem_width / 8) * capacity + 4

type element = {
  name : string;
  state : state_decl list;
  subs : (string * stmt list) list;  (** subroutines, inlined by the frontend *)
  handler : stmt list;
}

let find_state elt name =
  List.find_opt (fun d -> String.equal (state_name d) name) elt.state

let is_stateful elt = elt.state <> []
