(* The list printer the one-buffer [Nf_lang.Pp] replaced, kept as its
   oracle: one [Printf] string per rendered line, concatenated.  The
   pretty-print is hashed into every inline program's flow key, so the
   new printer must match it byte for byte. *)

open Nf_lang.Ast

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | BAnd -> "&"
  | BOr -> "|"
  | BXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let cmpop_str = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let hdr_str f =
  let prefix =
    match field_proto f with Eth -> "eth->" | Ip -> "ip->" | Tcp -> "tcp->" | Udp -> "udp->"
  in
  prefix ^ field_name f

let rec expr_str e =
  match e with
  | Int n -> string_of_int n
  | Local v -> v
  | Global v -> v
  | Hdr f -> hdr_str f
  | Payload_byte off -> Printf.sprintf "payload[%s]" (expr_str off)
  | Packet_len -> "pkt->length()"
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | Cmp (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_str a) (cmpop_str op) (expr_str b)
  | Not a -> Printf.sprintf "!%s" (expr_str a)
  | And_also (a, b) -> Printf.sprintf "(%s && %s)" (expr_str a) (expr_str b)
  | Or_else (a, b) -> Printf.sprintf "(%s || %s)" (expr_str a) (expr_str b)
  | Arr_get (name, idx) -> Printf.sprintf "%s[%s]" name (expr_str idx)
  | Vec_len name -> Printf.sprintf "%s.size()" name
  | Api_expr (name, args) ->
    Printf.sprintf "%s(%s)" name (String.concat ", " (List.map expr_str args))

let rec stmt_lines indent s =
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun str -> [ pad ^ str ]) fmt in
  match s.node with
  | Let (v, e) -> line "u32 %s = %s;" v (expr_str e)
  | Set_global (v, e) -> line "%s = %s;" v (expr_str e)
  | Set_hdr (f, e) -> line "%s = %s;" (hdr_str f) (expr_str e)
  | Set_payload (off, v) -> line "payload[%s] = %s;" (expr_str off) (expr_str v)
  | Arr_set (name, idx, v) -> line "%s[%s] = %s;" name (expr_str idx) (expr_str v)
  | Map_find (m, key, dst) ->
    line "bool %s = %s.find({%s});" dst m (String.concat ", " (List.map expr_str key))
  | Map_read (m, field, dst) -> line "u32 %s = %s.entry()->%s;" dst m field
  | Map_write (m, field, e) -> line "%s.entry()->%s = %s;" m field (expr_str e)
  | Map_insert (m, key, vals) ->
    line "%s.insert({%s}, {%s});" m
      (String.concat ", " (List.map expr_str key))
      (String.concat ", " (List.map expr_str vals))
  | Map_erase m -> line "%s.erase();" m
  | Vec_append (v, e) -> line "%s.push_back(%s);" v (expr_str e)
  | Vec_get (v, idx, dst) -> line "u32 %s = %s[%s];" dst v (expr_str idx)
  | Vec_set (v, idx, e) -> line "%s[%s] = %s;" v (expr_str idx) (expr_str e)
  | If (c, t, []) ->
    (pad ^ Printf.sprintf "if %s {" (expr_str c))
    :: List.concat_map (stmt_lines (indent + 2)) t
    @ [ pad ^ "}" ]
  | If (c, t, f) ->
    (pad ^ Printf.sprintf "if %s {" (expr_str c))
    :: List.concat_map (stmt_lines (indent + 2)) t
    @ [ pad ^ "} else {" ]
    @ List.concat_map (stmt_lines (indent + 2)) f
    @ [ pad ^ "}" ]
  | While (c, body) ->
    (pad ^ Printf.sprintf "while %s {" (expr_str c))
    :: List.concat_map (stmt_lines (indent + 2)) body
    @ [ pad ^ "}" ]
  | For (v, lo, hi, body) ->
    (pad
    ^ Printf.sprintf "for (u32 %s = %s; %s < %s; %s++) {" v (expr_str lo) v (expr_str hi) v)
    :: List.concat_map (stmt_lines (indent + 2)) body
    @ [ pad ^ "}" ]
  | Api_stmt (name, args) ->
    line "%s(%s);" name (String.concat ", " (List.map expr_str args))
  | Emit port -> line "output(%d).push(pkt);" port
  | Drop -> line "pkt->kill();"
  | Call_sub name -> line "%s();" name
  | Return -> line "return;"

let state_lines d =
  match d with
  | Scalar { name; width; init } -> [ Printf.sprintf "  u%d %s = %d;" width name init ]
  | Array { name; width; length } -> [ Printf.sprintf "  u%d %s[%d];" width name length ]
  | Map { name; key_widths; val_fields; capacity } ->
    [ Printf.sprintf "  HashMap<key%d, value%d> %s; // capacity %d"
        (List.length key_widths) (List.length val_fields) name capacity ]
  | Vector { name; elem_width; capacity } ->
    [ Printf.sprintf "  Vector<u%d> %s; // capacity %d" elem_width name capacity ]

let element_lines (elt : element) =
  let header = [ Printf.sprintf "class %s : public Element {" elt.name ] in
  let state = List.concat_map state_lines elt.state in
  let sub (name, body) =
    (Printf.sprintf "  void %s() {" name)
    :: List.concat_map (stmt_lines 4) body
    @ [ "  }" ]
  in
  let subs = List.concat_map sub elt.subs in
  let handler =
    "  void simple_action(Packet *pkt) {"
    :: List.concat_map (stmt_lines 4) elt.handler
    @ [ "  }" ]
  in
  header @ state @ subs @ handler @ [ "};" ]

let to_string elt = String.concat "\n" (element_lines elt)

(** Source-lines-of-code metric (non-empty rendered lines). *)
let loc elt = List.length (element_lines elt)
