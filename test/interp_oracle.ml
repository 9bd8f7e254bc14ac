(* The tree-walking host interpreter that {!Nf_lang.Interp} replaced,
   kept as a test-only oracle.  It walks the AST for every packet, keeps
   locals in a string-keyed table and bumps each profile table as each
   event happens; the differential suite checks that the resolved
   interpreter produces the same verdicts, the same profile contents in
   the same table iteration order, and the same exceptions.  Its map
   operations go through {!State_oracle} and its API calls through the
   list-matching evaluator below, the forms both had before the
   interpreter resolved them, so the differential covers them too. *)

open Nf_lang
open Ast

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

type t = {
  elt : element;
  state : State.t;
  profile : Interp.profile;
  mutable time : int;  (** virtual clock: packet sequence number *)
}

exception Handler_return = Interp.Handler_return
exception Fuel_exhausted = Interp.Fuel_exhausted

let create ?(mode = State.Host) elt =
  { elt; state = State.create ~mode elt.state; profile = Interp.new_profile (); time = 0 }

let loop_fuel = Interp.loop_fuel

let eval_api ~time (p : Packet.t) name (args : int list) =
  match (name, args) with
  | "hash32", _ -> Api.hash32 args
  | "crc32_payload", [ off; len ] -> Api.crc32_bytes p.payload off len
  | "crc32_payload", _ -> Api.crc32_bytes p.payload 0 (Bytes.length p.payload)
  | "crc16_payload", [ off; len ] -> Api.crc16_bytes p.payload off len
  | "crc16_payload", _ -> Api.crc16_bytes p.payload 0 (Bytes.length p.payload)
  | "checksum_ip", _ -> Packet.ip_checksum p
  | "rand16", _ -> Api.hash32 [ p.ip_src; p.ip_dst; p.tcp_seq; time; 0x5bd1 ] land 0xffff
  | "now", _ -> time
  | "min", [ a; b ] -> min a b
  | "max", [ a; b ] -> max a b
  | "lpm_lookup", [ dst ] -> Api.hash32 [ dst; 0x1f2e ] land 0xff
  | "flow_cache_lookup", [ dst ] -> if Api.hash32 [ dst; 0x77aa ] mod 8 <> 0 then 1 else 0
  | _ -> failwith (Printf.sprintf "Api.eval_expr: unknown API %s/%d" name (List.length args))

let exec_api (p : Packet.t) name (args : int list) =
  match (name, args) with
  | "checksum_update_ip", _ -> p.ip_csum <- Packet.ip_checksum p
  | "csum_incr_update", [ old_v; new_v ] ->
    let delta = (new_v - old_v) land 0xffff in
    p.ip_csum <- (p.ip_csum + delta) land 0xffff
  | _ -> failwith (Printf.sprintf "Api.exec_stmt: unknown API %s/%d" name (List.length args))

let record_map_op t map probes =
  let ops, total =
    match Hashtbl.find_opt t.profile.Interp.map_ops map with
    | Some pair -> pair
    | None ->
      let pair = (ref 0, ref 0) in
      Hashtbl.replace t.profile.Interp.map_ops map pair;
      pair
  in
  incr ops;
  total := !total + probes

let truth v = v <> 0

let rec eval t (locals : (string, int) Hashtbl.t) (pkt : Packet.t) ~sid e =
  let ev e = eval t locals pkt ~sid e in
  match e with
  | Int n -> n
  | Local v -> (
    (* locals are function-scope stack slots in the lowering; a read before
       any write sees a zero-initialized slot *)
    match Hashtbl.find_opt locals v with Some x -> x | None -> 0)
  | Global v ->
    bump t.profile.Interp.global_reads (v, sid);
    !(State.scalar_ref t.state v)
  | Hdr f -> Packet.get_field pkt f
  | Payload_byte off -> Packet.get_payload_byte pkt (ev off)
  | Packet_len -> Packet.length pkt
  | Bin (op, a, b) ->
    let x = ev a and y = ev b in
    (match op with
    | Add -> (x + y) land 0xffffffff
    | Sub -> (x - y) land 0xffffffff
    | Mul -> x * y land 0xffffffff
    | BAnd -> x land y
    | BOr -> x lor y
    | BXor -> x lxor y
    | Shl -> x lsl (y land 31) land 0xffffffff
    | Shr -> (x land 0xffffffff) lsr (y land 31))
  | Cmp (op, a, b) ->
    let x = ev a and y = ev b in
    let r =
      match op with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y
    in
    if r then 1 else 0
  | Not a -> if truth (ev a) then 0 else 1
  | And_also (a, b) -> if truth (ev a) then ev b else 0
  | Or_else (a, b) -> if truth (ev a) then 1 else ev b
  | Arr_get (name, idx) ->
    bump t.profile.Interp.global_reads (name, sid);
    let arr = State.array_of t.state name in
    let j = ev idx in
    if j >= 0 && j < Array.length arr then arr.(j) else 0
  | Vec_len name ->
    bump t.profile.Interp.global_reads (name, sid);
    State.vec_length (State.vec_of t.state name)
  | Api_expr (name, args) ->
    bump t.profile.Interp.api_counts name;
    eval_api ~time:t.time pkt name (List.map ev args)

and exec t locals pkt (s : stmt) =
  bump t.profile.Interp.stmt_counts s.sid;
  let sid = s.sid in
  let ev e = eval t locals pkt ~sid e in
  match s.node with
  | Let (v, e) -> Hashtbl.replace locals v (ev e)
  | Set_global (v, e) ->
    bump t.profile.Interp.global_writes (v, sid);
    State.scalar_ref t.state v := ev e
  | Set_hdr (f, e) -> Packet.set_field pkt f (ev e)
  | Set_payload (off, v) -> Packet.set_payload_byte pkt (ev off) (ev v)
  | Arr_set (name, idx, v) ->
    bump t.profile.Interp.global_writes (name, sid);
    let arr = State.array_of t.state name in
    let j = ev idx in
    if j >= 0 && j < Array.length arr then arr.(j) <- ev v
  | Map_find (map, key, dst) ->
    bump t.profile.Interp.global_reads (map, sid);
    bump t.profile.Interp.api_counts "map_find";
    let m = State.map_of t.state map in
    let found, probes = State_oracle.find m (Array.of_list (List.map ev key)) in
    record_map_op t map probes;
    Hashtbl.replace locals dst (if found then 1 else 0)
  | Map_read (map, field, dst) ->
    bump t.profile.Interp.global_reads (map, sid);
    bump t.profile.Interp.api_counts "map_read";
    Hashtbl.replace locals dst (State.read (State.map_of t.state map) field)
  | Map_write (map, field, e) ->
    bump t.profile.Interp.global_writes (map, sid);
    bump t.profile.Interp.api_counts "map_write";
    State.write (State.map_of t.state map) field (ev e)
  | Map_insert (map, key, vals) ->
    bump t.profile.Interp.global_writes (map, sid);
    bump t.profile.Interp.api_counts "map_insert";
    let m = State.map_of t.state map in
    let probes =
      State_oracle.insert m (Array.of_list (List.map ev key)) (Array.of_list (List.map ev vals))
    in
    record_map_op t map probes
  | Map_erase map ->
    bump t.profile.Interp.global_writes (map, sid);
    bump t.profile.Interp.api_counts "map_erase";
    State.erase (State.map_of t.state map)
  | Vec_append (name, e) ->
    bump t.profile.Interp.global_writes (name, sid);
    bump t.profile.Interp.api_counts "vec_append";
    State.vec_append (State.vec_of t.state name) (ev e)
  | Vec_get (name, idx, dst) ->
    bump t.profile.Interp.global_reads (name, sid);
    bump t.profile.Interp.api_counts "vec_get";
    Hashtbl.replace locals dst (State.vec_get (State.vec_of t.state name) (ev idx))
  | Vec_set (name, idx, e) ->
    bump t.profile.Interp.global_writes (name, sid);
    bump t.profile.Interp.api_counts "vec_set";
    State.vec_set (State.vec_of t.state name) (ev idx) (ev e)
  | If (c, th, el) -> exec_list t locals pkt (if truth (ev c) then th else el)
  | While (c, body) ->
    let fuel = ref loop_fuel in
    let check () =
      bump t.profile.Interp.cond_counts sid;
      truth (ev c)
    in
    while check () do
      decr fuel;
      if !fuel <= 0 then raise (Fuel_exhausted t.elt.name);
      exec_list t locals pkt body
    done
  | For (v, lo, hi, body) ->
    let lo_v = ev lo and hi_v = ev hi in
    let fuel = ref loop_fuel in
    let i = ref lo_v in
    let check () =
      bump t.profile.Interp.cond_counts sid;
      !i < hi_v
    in
    while check () do
      decr fuel;
      if !fuel <= 0 then raise (Fuel_exhausted t.elt.name);
      Hashtbl.replace locals v !i;
      exec_list t locals pkt body;
      (* the body may rebind the loop variable; the increment reads it back,
         matching C semantics *)
      i := 1 + Option.value ~default:!i (Hashtbl.find_opt locals v)
    done
  | Api_stmt (name, args) ->
    bump t.profile.Interp.api_counts name;
    exec_api pkt name (List.map ev args)
  | Emit port ->
    bump t.profile.Interp.api_counts "send";
    Hashtbl.replace locals "__action" (1000 + port);
    raise Handler_return
  | Drop ->
    bump t.profile.Interp.api_counts "kill";
    Hashtbl.replace locals "__action" (-1);
    raise Handler_return
  | Call_sub name -> (
    match List.assoc_opt name t.elt.subs with
    | Some body -> exec_list t locals pkt body
    | None -> failwith (Printf.sprintf "Interp: %s: unknown subroutine %s" t.elt.name name))
  | Return -> raise Handler_return

and exec_list t locals pkt stmts = List.iter (exec t locals pkt) stmts

(** Process one packet; returns the verdict. *)
let push t pkt =
  let locals = Hashtbl.create 32 in
  t.profile.Interp.packets <- t.profile.Interp.packets + 1;
  t.time <- t.time + 1;
  (try exec_list t locals pkt t.elt.handler with Handler_return -> ());
  match Hashtbl.find_opt locals "__action" with
  | Some a when a >= 1000 ->
    t.profile.Interp.emitted <- t.profile.Interp.emitted + 1;
    Interp.Emitted (a - 1000)
  | Some _ | None ->
    t.profile.Interp.dropped <- t.profile.Interp.dropped + 1;
    Interp.Dropped

(** Process a whole packet list, returning the profile. *)
let run t pkts =
  List.iter (fun pkt -> ignore (push t pkt)) pkts;
  t.profile
