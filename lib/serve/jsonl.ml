(** Minimal one-line JSON (see jsonl.mli). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- printing -- *)

let add_num b f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string b "null" (* JSON has no NaN/inf *)
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_num b f
    | Str s ->
      Buffer.add_char b '"';
      Obs.Json.add_escaped b s;
      Buffer.add_char b '"'
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        l;
      Buffer.add_char b ']'
    | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Obs.Json.add_escaped b k;
          Buffer.add_string b "\":";
          go v)
        l;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* -- parsing -- *)

exception Parse of string

let utf8_encode b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse s =
  if Obs.Fault.fire "jsonl.parse" then Error (`Injected "injected fault: jsonl.parse")
  else
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4) with Failure _ -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        let c = s.[!pos] in
        incr pos;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let code = hex4 () in
          let code =
            (* combine a surrogate pair when one follows *)
            if code >= 0xD800 && code <= 0xDBFF && !pos + 1 < n && s.[!pos] = '\\'
               && s.[!pos + 1] = 'u' then begin
              pos := !pos + 2;
              let low = hex4 () in
              if low >= 0xDC00 && low <= 0xDFFF then
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              else fail "unpaired surrogate"
            end
            else code
          in
          utf8_encode b code
        | _ -> fail "unknown escape");
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None ->
      pos := start;
      fail "invalid number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            fields (kv :: acc)
          | Some '}' ->
            incr pos;
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error (`Malformed msg)

let of_string s =
  match parse s with
  | Ok _ as ok -> ok
  | Error (`Malformed msg | `Injected msg) -> Error msg

(* [String.equal], not [List.assoc_opt]'s polymorphic compare: a request
   decode makes several lookups, most of them misses. *)
let member key = function
  | Obj l -> List.find_map (fun (k, v) -> if String.equal k key then Some v else None) l
  | _ -> None

(* -- best-effort member salvage from malformed text --

   Error replies must echo the request id even when the request line does
   not parse, or pipelined clients lose correlation.  Scan the raw text for
   the quoted key at object depth 1 (tracking strings so a key inside a
   value cannot match), then parse the scalar that follows the ':'. *)

let salvage_member key s =
  let n = String.length s in
  let klen = String.length key in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  (* [i] points just after an opening quote; result points past the closing
     quote (or [n] when the string never terminates) *)
  let rec skip_string i =
    if i >= n then n
    else
      match s.[i] with '\\' -> skip_string (i + 2) | '"' -> i + 1 | _ -> skip_string (i + 1)
  in
  let parse_scalar i =
    let i = ref i in
    while !i < n && is_ws s.[!i] do
      incr i
    done;
    if !i >= n then None
    else
      match s.[!i] with
      | '"' ->
        let stop = skip_string (!i + 1) in
        if stop <= n && stop > !i + 1 && s.[stop - 1] = '"' then
          match of_string (String.sub s !i (stop - !i)) with Ok v -> Some v | Error _ -> None
        else None
      | 't' | 'f' | 'n' ->
        let take w v =
          if !i + String.length w <= n && String.sub s !i (String.length w) = w then Some v
          else None
        in
        (match s.[!i] with
        | 't' -> take "true" (Bool true)
        | 'f' -> take "false" (Bool false)
        | _ -> take "null" Null)
      | '0' .. '9' | '-' | '+' | '.' ->
        let stop = ref !i in
        while
          !stop < n
          && match s.[!stop] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr stop
        done;
        Option.map (fun f -> Num f) (float_of_string_opt (String.sub s !i (!stop - !i)))
      | _ -> None
  in
  let found = ref None in
  let depth = ref 0 in
  let i = ref 0 in
  while !found = None && !i < n do
    match s.[!i] with
    | '"' ->
      let start = !i + 1 in
      let stop = skip_string start in
      (if !depth = 1 && stop <= n && stop > start && s.[stop - 1] = '"'
          && stop - 1 - start = klen
          && String.sub s start klen = key then begin
         let j = ref stop in
         while !j < n && is_ws s.[!j] do
           incr j
         done;
         if !j < n && s.[!j] = ':' then found := parse_scalar (!j + 1)
       end);
      i := stop
    | '{' | '[' ->
      incr depth;
      incr i
    | '}' | ']' ->
      decr depth;
      incr i
    | _ -> incr i
  done;
  !found

let str_member key v = match member key v with Some (Str s) -> Some s | _ -> None
let num_member key v = match member key v with Some (Num f) -> Some f | _ -> None
