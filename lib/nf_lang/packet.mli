(** Mutable packet model for host-side NF execution — the runtime object
    the interpreter mutates, standing in for Click's
    [Packet]/[WritablePacket].  Header fields are masked unsigned
    integers; the payload is a byte buffer. *)

type t = {
  mutable eth_type : int;
  mutable ip_src : int;
  mutable ip_dst : int;
  mutable ip_proto : int;
  mutable ip_ttl : int;
  mutable ip_len : int;
  mutable ip_hl : int;
  mutable ip_tos : int;
  mutable ip_id : int;
  mutable ip_csum : int;
  mutable tcp_sport : int;
  mutable tcp_dport : int;
  mutable tcp_seq : int;
  mutable tcp_ack : int;
  mutable tcp_off : int;
  mutable tcp_flags : int;
  mutable tcp_win : int;
  mutable tcp_csum : int;
  mutable udp_sport : int;
  mutable udp_dport : int;
  mutable udp_len : int;
  mutable udp_csum : int;
  mutable payload : Bytes.t;
}

val tcp_proto : int
val udp_proto : int
val default_payload_len : int

(** A well-formed TCP/IPv4 packet with a zeroed payload. *)
val create : ?payload_len:int -> unit -> t

(** Total on-wire length in bytes (ethernet header + ip total length). *)
val length : t -> int

val payload_len : t -> int

(** [mask width v] truncates [v] to [width] bits. *)
val mask : int -> int -> int

val get_field : t -> Ast.header_field -> int

(** Width-masked field store. *)
val set_field : t -> Ast.header_field -> int -> unit

(** Out-of-range payload reads return 0; writes are dropped. *)
val get_payload_byte : t -> int -> int

val set_payload_byte : t -> int -> int -> unit

(** Deep copy with a fresh payload buffer, so one generated trace can be
    replayed against several (mutating) interpreter runs. *)
val copy : t -> t

(** [assign dst src] overwrites every field of [dst] with [src]'s and
    [dst]'s payload bytes with [src]'s (a fresh buffer only when the
    lengths differ): [dst] becomes a copy of [src] without a new packet. *)
val assign : t -> t -> unit

(** The canonical 5-tuple (src ip, dst ip, proto, sport, dport), using the
    UDP ports for UDP packets. *)
val flow_key : t -> int * int * int * int * int

(** Deterministic RFC-1071-style header checksum. *)
val ip_checksum : t -> int
