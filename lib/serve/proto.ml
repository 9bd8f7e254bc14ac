(** The JSON-lines request/reply protocol (see proto.mli). *)

let cmd req =
  match Jsonl.str_member "cmd" req with Some _ as c -> c | None -> Jsonl.str_member "op" req

let default_workload = "mixed"
let workload req = Option.value (Jsonl.str_member "workload" req) ~default:default_workload
let flow_key subject workload = subject ^ "|" ^ workload

let identity ~mint ?req line =
  match req with
  | Some req ->
    let id = Option.value (Jsonl.member "id" req) ~default:Jsonl.Null in
    let trace = match Jsonl.str_member "trace_id" req with Some s -> s | None -> mint () in
    (id, trace)
  | None ->
    let id = Option.value (Jsonl.salvage_member "id" line) ~default:Jsonl.Null in
    let trace =
      match Jsonl.salvage_member "trace_id" line with
      | Some (Jsonl.Str s) -> s
      | Some _ | None -> mint ()
    in
    (id, trace)

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
