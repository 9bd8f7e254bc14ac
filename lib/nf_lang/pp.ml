(** Pretty-printer rendering an element as Click-flavored C++ source.

    Used for human inspection, for the LoC column of the Table-2 corpus
    inventory (the paper reports source lines of the unported elements)
    and, through the CRC of {!to_string}, for an inline program's flow
    key on every request that names one.  One walker prints every line
    into one buffer; {!loc} counts the lines it printed. *)

open Ast

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

let proto_prefix f =
  match field_proto f with Eth -> "eth->" | Ip -> "ip->" | Tcp -> "tcp->" | Udp -> "udp->"

let add = Buffer.add_string

let rec add_expr b e =
  match e with
  | Int n -> add b (string_of_int n)
  | Local v | Global v -> add b v
  | Hdr f ->
    add b (proto_prefix f);
    add b (field_name f)
  | Payload_byte off ->
    add b "payload[";
    add_expr b off;
    add b "]"
  | Packet_len -> add b "pkt->length()"
  | Bin (op, x, y) -> add_infix b x (binop_str op) y
  | Cmp (op, x, y) -> add_infix b x (cmpop_str op) y
  | Not x ->
    add b "!";
    add_expr b x
  | And_also (x, y) -> add_infix b x "&&" y
  | Or_else (x, y) -> add_infix b x "||" y
  | Arr_get (name, idx) ->
    add b name;
    add b "[";
    add_expr b idx;
    add b "]"
  | Vec_len name ->
    add b name;
    add b ".size()"
  | Api_expr (name, args) ->
    add b name;
    add b "(";
    add_exprs b args;
    add b ")"

and add_infix b x op y =
  add b "(";
  add_expr b x;
  add b " ";
  add b op;
  add b " ";
  add_expr b y;
  add b ")"

and add_exprs b = function
  | [] -> ()
  | e :: rest ->
    add_expr b e;
    List.iter
      (fun e ->
        add b ", ";
        add_expr b e)
      rest

(* -- the walker --

   Every rendered line goes through [line]: lines are separated by
   [sep] and indented by their depth unless [trim] is set, in which case
   each line's text is trimmed instead. *)

type out = { b : Buffer.t; sep : string; trim : bool; scratch : Buffer.t; mutable lines : int }

let line o indent text =
  if o.lines > 0 then add o.b o.sep;
  o.lines <- o.lines + 1;
  if o.trim then begin
    Buffer.clear o.scratch;
    text o.scratch;
    add o.b (String.trim (Buffer.contents o.scratch))
  end
  else begin
    for _ = 1 to indent do
      Buffer.add_char o.b ' '
    done;
    text o.b
  end

let words ws b = List.iter (add b) ws

let rec add_stmt o indent s =
  let simple text = line o indent text in
  let block head body =
    line o indent head;
    List.iter (add_stmt o (indent + 2)) body
  in
  match s.node with
  | Let (v, e) ->
    simple (fun b ->
        words [ "u32 "; v; " = " ] b;
        add_expr b e;
        add b ";")
  | Set_global (v, e) ->
    simple (fun b ->
        words [ v; " = " ] b;
        add_expr b e;
        add b ";")
  | Set_hdr (f, e) ->
    simple (fun b ->
        words [ proto_prefix f; field_name f; " = " ] b;
        add_expr b e;
        add b ";")
  | Set_payload (off, v) ->
    simple (fun b ->
        add b "payload[";
        add_expr b off;
        add b "] = ";
        add_expr b v;
        add b ";")
  | Arr_set (name, idx, v) ->
    simple (fun b ->
        words [ name; "[" ] b;
        add_expr b idx;
        add b "] = ";
        add_expr b v;
        add b ";")
  | Map_find (m, key, dst) ->
    simple (fun b ->
        words [ "bool "; dst; " = "; m; ".find({" ] b;
        add_exprs b key;
        add b "});")
  | Map_read (m, field, dst) -> simple (words [ "u32 "; dst; " = "; m; ".entry()->"; field; ";" ])
  | Map_write (m, field, e) ->
    simple (fun b ->
        words [ m; ".entry()->"; field; " = " ] b;
        add_expr b e;
        add b ";")
  | Map_insert (m, key, vals) ->
    simple (fun b ->
        words [ m; ".insert({" ] b;
        add_exprs b key;
        add b "}, {";
        add_exprs b vals;
        add b "});")
  | Map_erase m -> simple (words [ m; ".erase();" ])
  | Vec_append (v, e) ->
    simple (fun b ->
        words [ v; ".push_back(" ] b;
        add_expr b e;
        add b ");")
  | Vec_get (v, idx, dst) ->
    simple (fun b ->
        words [ "u32 "; dst; " = "; v; "[" ] b;
        add_expr b idx;
        add b "];")
  | Vec_set (v, idx, e) ->
    simple (fun b ->
        words [ v; "[" ] b;
        add_expr b idx;
        add b "] = ";
        add_expr b e;
        add b ";")
  | If (c, t, f) ->
    block
      (fun b ->
        add b "if ";
        add_expr b c;
        add b " {")
      t;
    if f <> [] then block (add_s "} else {") f;
    simple (add_s "}")
  | While (c, body) ->
    block
      (fun b ->
        add b "while ";
        add_expr b c;
        add b " {")
      body;
    simple (add_s "}")
  | For (v, lo, hi, body) ->
    block
      (fun b ->
        words [ "for (u32 "; v; " = " ] b;
        add_expr b lo;
        words [ "; "; v; " < " ] b;
        add_expr b hi;
        words [ "; "; v; "++) {" ] b)
      body;
    simple (add_s "}")
  | Api_stmt (name, args) ->
    simple (fun b ->
        words [ name; "(" ] b;
        add_exprs b args;
        add b ");")
  | Emit port -> simple (words [ "output("; string_of_int port; ").push(pkt);" ])
  | Drop -> simple (add_s "pkt->kill();")
  | Call_sub name -> simple (words [ name; "();" ])
  | Return -> simple (add_s "return;")

and add_s text b = add b text

let add_state o d =
  let w n = string_of_int n in
  line o 2
    (words
       (match d with
       | Scalar { name; width; init } -> [ "u"; w width; " "; name; " = "; w init; ";" ]
       | Array { name; width; length } -> [ "u"; w width; " "; name; "["; w length; "];" ]
       | Map { name; key_widths; val_fields; capacity } ->
         [ "HashMap<key"; w (List.length key_widths); ", value"; w (List.length val_fields); "> ";
           name; "; // capacity "; w capacity ]
       | Vector { name; elem_width; capacity } ->
         [ "Vector<u"; w elem_width; "> "; name; "; // capacity "; w capacity ]))

let render (elt : element) =
  let o =
    { b = Buffer.create 1024; sep = "\n"; trim = false; scratch = Buffer.create 0; lines = 0 }
  in
  line o 0 (words [ "class "; elt.name; " : public Element {" ]);
  List.iter (add_state o) elt.state;
  List.iter
    (fun (name, body) ->
      line o 2 (words [ "void "; name; "() {" ]);
      List.iter (add_stmt o 4) body;
      line o 2 (add_s "}"))
    elt.subs;
  line o 2 (add_s "void simple_action(Packet *pkt) {");
  List.iter (add_stmt o 4) elt.handler;
  line o 2 (add_s "}");
  line o 0 (add_s "};");
  o

let to_string elt = Buffer.contents (render elt).b
let loc elt = (render elt).lines

let stmt_text s =
  let o = { b = Buffer.create 64; sep = " "; trim = true; scratch = Buffer.create 64; lines = 0 } in
  add_stmt o 0 s;
  Buffer.contents o.b
