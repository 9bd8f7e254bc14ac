(** Framework API registry and host-side semantics.

    These are the Click library calls that a cross-porting developer must
    replace with SmartNIC built-ins (§3.3).  Each API has a host
    implementation (used by the interpreter) and a classification used by
    the frontend and by Clara's reverse-porting pass. *)

type kind =
  | Pure_helper  (** e.g. hash/crc helpers: expression-level, no side effect *)
  | Header_accessor  (** ip_header()/tcp_header()-style parsing calls *)
  | Checksum  (** checksum computation or update *)
  | Data_structure  (** HashMap/Vector operations *)
  | Packet_io  (** send/drop *)

(** Names of the expression-level helpers recognized by the interpreter and
    the frontend. *)
let expr_apis =
  [ "hash32"; "crc32_payload"; "crc16_payload"; "checksum_ip"; "rand16"; "now"; "min"; "max";
    "lpm_lookup"; "flow_cache_lookup" ]

let stmt_apis = [ "checksum_update_ip"; "csum_incr_update" ]

let classify = function
  | "hash32" | "rand16" | "now" | "min" | "max" | "lpm_lookup" | "flow_cache_lookup" ->
    Pure_helper
  | "crc32_payload" | "crc16_payload" | "checksum_ip" | "checksum_update_ip"
  | "csum_incr_update" ->
    Checksum
  | "ip_header" | "tcp_header" | "udp_header" | "eth_header" | "packet_len" ->
    Header_accessor
  | name when String.length name > 4 && String.sub name 0 4 = "map_" -> Data_structure
  | name when String.length name > 4 && String.sub name 0 4 = "vec_" -> Data_structure
  | "send" | "kill" -> Packet_io
  | name -> failwith (Printf.sprintf "Api.classify: unknown API %s" name)

let mix32 h k =
  let h = h lxor (k land 0xffffffff) in
  let h = h * 0x01000193 land 0x3fffffff in
  h lxor (h lsr 15)

let seed32 = 0x811c9dc5
let hash32 args = List.fold_left mix32 seed32 args land 0x3fffffff

(** Bitwise CRC32 (reflected, poly 0xEDB88320) over a payload slice. *)
let crc32_bytes bytes off len =
  let crc = ref 0xffffffff in
  for i = off to min (off + len) (Bytes.length bytes) - 1 do
    crc := !crc lxor Char.code (Bytes.get bytes i);
    for _ = 0 to 7 do
      let lsb = !crc land 1 in
      crc := !crc lsr 1;
      if lsb = 1 then crc := !crc lxor 0xedb88320
    done
  done;
  lnot !crc land 0xffffffff

let crc16_bytes bytes off len =
  let crc = ref 0xffff in
  for i = off to min (off + len) (Bytes.length bytes) - 1 do
    crc := !crc lxor Char.code (Bytes.get bytes i);
    for _ = 0 to 7 do
      let lsb = !crc land 1 in
      crc := !crc lsr 1;
      if lsb = 1 then crc := !crc lxor 0xa001
    done
  done;
  !crc land 0xffff

(** Host evaluation of an expression-level API call, resolved once by
    name and arity: the result takes the virtual clock (packet sequence
    number), the packet and exactly [arity] argument values.  An unknown
    name or arity fails when called, not when resolved. *)
let expr_fn name arity : int -> Packet.t -> int array -> int =
  match (name, arity) with
  | "hash32", _ -> fun _ _ args -> Array.fold_left mix32 seed32 args land 0x3fffffff
  | "crc32_payload", 2 -> fun _ p args -> crc32_bytes p.payload args.(0) args.(1)
  | "crc32_payload", _ -> fun _ p _ -> crc32_bytes p.payload 0 (Bytes.length p.payload)
  | "crc16_payload", 2 -> fun _ p args -> crc16_bytes p.payload args.(0) args.(1)
  | "crc16_payload", _ -> fun _ p _ -> crc16_bytes p.payload 0 (Bytes.length p.payload)
  | "checksum_ip", _ -> fun _ p _ -> Packet.ip_checksum p
  | "rand16", _ ->
    fun time p _ ->
      let h = mix32 (mix32 (mix32 (mix32 (mix32 seed32 p.ip_src) p.ip_dst) p.tcp_seq) time) 0x5bd1 in
      h land 0x3fffffff land 0xffff
  | "now", _ -> fun time _ _ -> time
  | "min", 2 -> fun _ _ args -> min args.(0) args.(1)
  | "max", 2 -> fun _ _ args -> max args.(0) args.(1)
  | "lpm_lookup", 1 -> fun _ _ args -> mix32 (mix32 seed32 args.(0)) 0x1f2e land 0x3fffffff land 0xff
  | "flow_cache_lookup", 1 ->
    fun _ _ args -> if mix32 (mix32 seed32 args.(0)) 0x77aa land 0x3fffffff mod 8 <> 0 then 1 else 0
  | _ -> fun _ _ _ -> failwith (Printf.sprintf "Api.eval_expr: unknown API %s/%d" name arity)

(** Host execution of a statement-level API call, resolved once as
    {!expr_fn} is. *)
let stmt_fn name arity : Packet.t -> int array -> unit =
  match (name, arity) with
  | "checksum_update_ip", _ -> fun p _ -> p.ip_csum <- Packet.ip_checksum p
  | "csum_incr_update", 2 ->
    fun p args ->
      let delta = (args.(1) - args.(0)) land 0xffff in
      p.ip_csum <- (p.ip_csum + delta) land 0xffff
  | _ -> fun _ _ -> failwith (Printf.sprintf "Api.exec_stmt: unknown API %s/%d" name arity)

let eval_expr ~time p name args = expr_fn name (List.length args) time p (Array.of_list args)
let exec_stmt p name args = stmt_fn name (List.length args) p (Array.of_list args)
