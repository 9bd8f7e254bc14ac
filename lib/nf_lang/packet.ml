(** Mutable packet model for host-side NF execution.

    Header fields are stored as masked unsigned integers; the payload is a
    byte array.  This is the runtime object the {!Interp} host interpreter
    mutates, standing in for Click's [Packet]/[WritablePacket]. *)

open Ast

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

let tcp_proto = 6
let udp_proto = 17

let default_payload_len = 26

let create ?(payload_len = default_payload_len) () =
  {
    eth_type = 0x0800;
    ip_src = 0x0a000001;
    ip_dst = 0x0a000002;
    ip_proto = tcp_proto;
    ip_ttl = 64;
    ip_len = 40 + payload_len;
    ip_hl = 5;
    ip_tos = 0;
    ip_id = 0;
    ip_csum = 0;
    tcp_sport = 1234;
    tcp_dport = 80;
    tcp_seq = 0;
    tcp_ack = 0;
    tcp_off = 5;
    tcp_flags = 0x10;
    tcp_win = 65535;
    tcp_csum = 0;
    udp_sport = 1234;
    udp_dport = 53;
    udp_len = 8 + payload_len;
    udp_csum = 0;
    payload = Bytes.make payload_len '\000';
  }

(** Total on-wire length in bytes (ethernet header + ip total length). *)
let length p = 14 + p.ip_len

let payload_len p = Bytes.length p.payload

let mask width v = v land ((1 lsl width) - 1)

let get_field p f =
  match f with
  | Eth_type -> p.eth_type
  | Ip_src -> p.ip_src
  | Ip_dst -> p.ip_dst
  | Ip_proto -> p.ip_proto
  | Ip_ttl -> p.ip_ttl
  | Ip_len -> p.ip_len
  | Ip_hl -> p.ip_hl
  | Ip_tos -> p.ip_tos
  | Ip_id -> p.ip_id
  | Ip_csum -> p.ip_csum
  | Tcp_sport -> p.tcp_sport
  | Tcp_dport -> p.tcp_dport
  | Tcp_seq -> p.tcp_seq
  | Tcp_ack -> p.tcp_ack
  | Tcp_off -> p.tcp_off
  | Tcp_flags -> p.tcp_flags
  | Tcp_win -> p.tcp_win
  | Tcp_csum -> p.tcp_csum
  | Udp_sport -> p.udp_sport
  | Udp_dport -> p.udp_dport
  | Udp_len -> p.udp_len
  | Udp_csum -> p.udp_csum

let set_field p f v =
  let v = mask (field_width f) v in
  match f with
  | Eth_type -> p.eth_type <- v
  | Ip_src -> p.ip_src <- v
  | Ip_dst -> p.ip_dst <- v
  | Ip_proto -> p.ip_proto <- v
  | Ip_ttl -> p.ip_ttl <- v
  | Ip_len -> p.ip_len <- v
  | Ip_hl -> p.ip_hl <- v
  | Ip_tos -> p.ip_tos <- v
  | Ip_id -> p.ip_id <- v
  | Ip_csum -> p.ip_csum <- v
  | Tcp_sport -> p.tcp_sport <- v
  | Tcp_dport -> p.tcp_dport <- v
  | Tcp_seq -> p.tcp_seq <- v
  | Tcp_ack -> p.tcp_ack <- v
  | Tcp_off -> p.tcp_off <- v
  | Tcp_flags -> p.tcp_flags <- v
  | Tcp_win -> p.tcp_win <- v
  | Tcp_csum -> p.tcp_csum <- v
  | Udp_sport -> p.udp_sport <- v
  | Udp_dport -> p.udp_dport <- v
  | Udp_len -> p.udp_len <- v
  | Udp_csum -> p.udp_csum <- v

let get_payload_byte p off =
  if off < 0 || off >= Bytes.length p.payload then 0
  else Char.code (Bytes.get p.payload off)

let set_payload_byte p off v =
  if off >= 0 && off < Bytes.length p.payload then
    Bytes.set p.payload off (Char.chr (v land 0xff))

(** Deep copy with a fresh payload buffer.  Interpreters mutate packets in
    place, so replaying one generated trace against several NFs needs a
    fresh copy per run. *)
let copy p = { p with payload = Bytes.copy p.payload }

(** Overwrite every field of [dst] with [src]'s, payload bytes included. *)
let assign dst src =
  dst.eth_type <- src.eth_type;
  dst.ip_src <- src.ip_src;
  dst.ip_dst <- src.ip_dst;
  dst.ip_proto <- src.ip_proto;
  dst.ip_ttl <- src.ip_ttl;
  dst.ip_len <- src.ip_len;
  dst.ip_hl <- src.ip_hl;
  dst.ip_tos <- src.ip_tos;
  dst.ip_id <- src.ip_id;
  dst.ip_csum <- src.ip_csum;
  dst.tcp_sport <- src.tcp_sport;
  dst.tcp_dport <- src.tcp_dport;
  dst.tcp_seq <- src.tcp_seq;
  dst.tcp_ack <- src.tcp_ack;
  dst.tcp_off <- src.tcp_off;
  dst.tcp_flags <- src.tcp_flags;
  dst.tcp_win <- src.tcp_win;
  dst.tcp_csum <- src.tcp_csum;
  dst.udp_sport <- src.udp_sport;
  dst.udp_dport <- src.udp_dport;
  dst.udp_len <- src.udp_len;
  dst.udp_csum <- src.udp_csum;
  if Bytes.length dst.payload = Bytes.length src.payload then
    Bytes.blit src.payload 0 dst.payload 0 (Bytes.length src.payload)
  else dst.payload <- Bytes.copy src.payload

(** The canonical 5-tuple identifying the packet's flow. *)
let flow_key p =
  let l4 =
    if p.ip_proto = udp_proto then (p.udp_sport, p.udp_dport) else (p.tcp_sport, p.tcp_dport)
  in
  (p.ip_src, p.ip_dst, p.ip_proto, fst l4, snd l4)

(** RFC-1071 style internet checksum over header fields; a deterministic
    stand-in for real IP header checksumming. *)
let ip_checksum p =
  let words =
    [ p.ip_src lsr 16; p.ip_src land 0xffff; p.ip_dst lsr 16; p.ip_dst land 0xffff;
      (p.ip_ttl lsl 8) lor p.ip_proto; p.ip_len; p.ip_id; (p.ip_hl lsl 8) lor p.ip_tos ]
  in
  let sum = List.fold_left ( + ) 0 words in
  let folded = (sum land 0xffff) + (sum lsr 16) in
  lnot folded land 0xffff
