(** The JSON-lines request/reply protocol (see proto.mli). *)

let default_workload = "mixed"
let flow_key subject workload = subject ^ "|" ^ workload

(* -- inline P4lite programs -- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let all_fields =
  Nf_lang.Ast.
    [ Eth_type; Ip_src; Ip_dst; Ip_proto; Ip_ttl; Ip_len; Ip_hl; Ip_tos; Ip_id; Ip_csum;
      Tcp_sport; Tcp_dport; Tcp_seq; Tcp_ack; Tcp_off; Tcp_flags; Tcp_win; Tcp_csum;
      Udp_sport; Udp_dport; Udp_len; Udp_csum ]

let field_of_name s = List.find_opt (fun f -> Nf_lang.Ast.field_name f = s) all_fields

(* Actions are compact strings: "drop" | "noop" | "dec_ttl" | "forward:PORT"
   | "set:FIELD" | "count:NAME". *)
let action_of_string s =
  match s with
  | "drop" -> Nf_lang.P4lite.Drop_packet
  | "noop" -> Nf_lang.P4lite.No_op
  | "dec_ttl" -> Nf_lang.P4lite.Decrement_ttl
  | _ -> (
    match String.index_opt s ':' with
    | None -> bad "unknown action %S" s
    | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "forward" -> (
        match int_of_string_opt arg with
        | Some port -> Nf_lang.P4lite.Forward port
        | None -> bad "forward wants a port number, got %S" arg)
      | "set" -> (
        match field_of_name arg with
        | Some f -> Nf_lang.P4lite.Set_field f
        | None -> bad "unknown header field %S" arg)
      | "count" -> Nf_lang.P4lite.Count arg
      | _ -> bad "unknown action %S" s))

let string_list_member what key j =
  match Jsonl.member key j with
  | Some (Jsonl.Arr items) ->
    List.map (function Jsonl.Str s -> s | _ -> bad "%s: %S wants strings" what key) items
  | Some _ -> bad "%s: %S must be an array" what key
  | None -> bad "%s: missing %S" what key

let table_of_json j =
  let name =
    match Jsonl.str_member "name" j with Some s -> s | None -> bad "table: missing \"name\""
  in
  let keys =
    List.map
      (fun s ->
        match field_of_name s with
        | Some f -> f
        | None -> bad "table %s: unknown key field %S" name s)
      (string_list_member ("table " ^ name) "keys" j)
  in
  let actions = List.map action_of_string (string_list_member ("table " ^ name) "actions" j) in
  let default_action =
    match Jsonl.str_member "default" j with
    | Some s -> action_of_string s
    | None -> Nf_lang.P4lite.No_op
  in
  let size =
    match Jsonl.num_member "size" j with Some f -> int_of_float f | None -> 64
  in
  if keys = [] then bad "table %s: needs at least one key" name;
  if size < 1 then bad "table %s: size must be >= 1" name;
  { Nf_lang.P4lite.t_name = name; keys; actions; default_action; size }

let program_of_json j =
  let p_name = Option.value (Jsonl.str_member "name" j) ~default:"p4lite" in
  let pipeline =
    match Jsonl.member "tables" j with
    | Some (Jsonl.Arr tables) -> List.map table_of_json tables
    | Some _ -> bad "\"tables\" must be an array"
    | None -> bad "p4lite program: missing \"tables\""
  in
  if pipeline = [] then bad "p4lite program: empty pipeline";
  { Nf_lang.P4lite.p_name; pipeline }

let program_key elt =
  Printf.sprintf "p4lite:%08lx" (Persist.Wire.crc32 (Nf_lang.Pp.to_string elt))

(* -- the request record -- *)

type target =
  | Nf of { name : string; key : string }
  | Program of { elt : Nf_lang.Ast.element; key : string }
  | Bad_program of string
  | No_target

type request = {
  req : Jsonl.t;
  cmd : string option;
  id : Jsonl.t;
  trace : string option;
  tenant : string;
  deadline_ms : float option;
  workload : string;
  target : target;
}

(* A string "nf" wins over "p4lite", as it always has. *)
let target_of req workload =
  match Jsonl.str_member "nf" req with
  | Some name -> Nf { name; key = flow_key name workload }
  | None -> (
    match Jsonl.member "p4lite" req with
    | None -> No_target
    | Some pj -> (
      match program_of_json pj with
      | prog ->
        let elt = Nf_lang.P4lite.compile prog in
        Program { elt; key = flow_key (program_key elt) workload }
      | exception Bad msg -> Bad_program msg))

let decode req =
  let cmd =
    match Jsonl.str_member "cmd" req with Some _ as c -> c | None -> Jsonl.str_member "op" req
  in
  let workload = Option.value (Jsonl.str_member "workload" req) ~default:default_workload in
  { req;
    cmd;
    id = Option.value (Jsonl.member "id" req) ~default:Jsonl.Null;
    trace = Jsonl.str_member "trace_id" req;
    tenant = Option.value (Jsonl.str_member "tenant" req) ~default:"default";
    deadline_ms = Jsonl.num_member "deadline_ms" req;
    workload;
    target = (if cmd = Some "analyze" then target_of req workload else No_target) }

let salvage line =
  let str key = match Jsonl.salvage_member key line with Some (Jsonl.Str s) -> Some s | _ -> None in
  { (decode Jsonl.Null) with
    id = Option.value (Jsonl.salvage_member "id" line) ~default:Jsonl.Null;
    trace = str "trace_id";
    tenant = Option.value (str "tenant") ~default:"default" }

let identity ~mint r = (r.id, match r.trace with Some s -> s | None -> mint ())

(* -- replies -- *)

let ok_reply ~trace id fields =
  Jsonl.to_string
    (Jsonl.Obj
       (("id", id) :: ("ok", Jsonl.Bool true) :: ("trace_id", Jsonl.Str trace) :: fields))

let error_reply ?(overloaded = false) ?(deadline = false) ?(unavailable = false) ?valid
    ?(extra = []) ~trace id msg =
  let flag on name rest = if on then (name, Jsonl.Bool true) :: rest else rest in
  let tail =
    match valid with
    | None -> extra
    | Some names -> ("valid", Jsonl.Arr (List.map (fun s -> Jsonl.Str s) names)) :: extra
  in
  Jsonl.to_string
    (Jsonl.Obj
       (("id", id) :: ("ok", Jsonl.Bool false) :: ("trace_id", Jsonl.Str trace)
        :: ("error", Jsonl.Str msg)
        :: flag overloaded "overloaded"
             (flag deadline "deadline_exceeded" (flag unavailable "unavailable" tail))))

let retry_later reply =
  let flagged name =
    match Jsonl.member name reply with
    | Some (Jsonl.Bool true) -> Some (Option.value (Jsonl.str_member "error" reply) ~default:name)
    | _ -> None
  in
  match flagged "overloaded" with Some _ as m -> m | None -> flagged "unavailable"
