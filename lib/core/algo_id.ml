(** Algorithm identification for accelerator offloading (§4.1, Figures 7,
    9, 10a).

    Features come from Sequential Pattern Extraction: frequent contiguous
    opcode n-grams mined from positive examples with high support (appear
    in most positives) and high confidence (rarely in negatives), plus the
    paper's manually-engineered features (bitwise-op density for CRC,
    bounded pointer-chasing for LPM).  A linear SVM is trained per
    accelerator class; inference labels each component of an NF and
    suggests a rewrite when a class matches. *)

open Nf_lang
open Nf_ir

(* -- component extraction: whole handler + each outermost loop -- *)

let rec outermost_loops (stmts : Ast.stmt list) : Ast.stmt list =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.Ast.node with
      | Ast.For (_, _, _, _) | Ast.While (_, _) -> [ s ]
      | Ast.If (_, t, f) -> outermost_loops t @ outermost_loops f
      | Ast.Let _ | Ast.Set_global _ | Ast.Set_hdr _ | Ast.Set_payload _ | Ast.Arr_set _
      | Ast.Map_find _ | Ast.Map_read _ | Ast.Map_write _ | Ast.Map_insert _ | Ast.Map_erase _
      | Ast.Vec_append _ | Ast.Vec_get _ | Ast.Vec_set _ | Ast.Api_stmt _ | Ast.Emit _
      | Ast.Drop | Ast.Call_sub _ | Ast.Return ->
        [])
    stmts

(* Each outermost loop as its own element. *)
let loop_components (elt : Ast.element) =
  List.mapi
    (fun k loop ->
      ( Printf.sprintf "%s/loop%d" elt.Ast.name k,
        { elt with Ast.name = Printf.sprintf "%s_loop%d" elt.Ast.name k; Ast.handler = [ loop ] } ))
    (outermost_loops (elt.Ast.handler @ List.concat_map snd elt.Ast.subs))

(** Analyzable components of an element: loop nests are where accelerator
    algorithms live; the whole handler is included as a fallback. *)
let components (elt : Ast.element) : (string * Ast.element) list =
  (elt.Ast.name ^ "/all", elt) :: loop_components elt

(* -- opcode sequence and n-gram mining -- *)

let opcode_seq_of_ir (ir : Ir.func) : int array =
  let seq = ref [] in
  Array.iter
    (fun b -> List.iter (fun (i : Ir.instr) -> seq := Ir.opcode_index i :: !seq) b.Ir.instrs)
    ir.Ir.blocks;
  Array.of_list (List.rev !seq)

let gram_key gram = String.concat "," (List.map string_of_int gram)

(* A gram packed into an int: each opcode index + 1 is one base-[radix]
   digit, so grams of different lengths never collide. *)
let radix = Ir.opcode_cardinality + 1
let max_gram = 12

(* The counts of every [n]-gram of [seq], for each [n] in [ns], packed. *)
let gram_counts seq ns =
  Array.iter
    (fun o -> if o < 0 || o >= Ir.opcode_cardinality then invalid_arg "Algo_id: not an opcode index")
    seq;
  let out = Hashtbl.create 256 in
  List.iter
    (fun n ->
      if n < 1 || n > max_gram then invalid_arg "Algo_id: gram length out of range";
      for start = 0 to Array.length seq - n do
        let g = ref 0 in
        for k = 0 to n - 1 do
          g := (!g * radix) + seq.(start + k) + 1
        done;
        Hashtbl.replace out !g (1 + Option.value ~default:0 (Hashtbl.find_opt out !g))
      done)
    ns;
  out

(* The packed form of [gram_key] of an [n]-gram, or [None] when [key] is
   not one (a gram outside every sequence's table). *)
let pack_key key n =
  let len = String.length key in
  let rec gram i k acc =
    let rec digits j v =
      if j < len && j - i < 2 && key.[j] >= '0' && key.[j] <= '9' then
        digits (j + 1) ((v * 10) + Char.code key.[j] - 48)
      else (j, v)
    in
    let j, v = digits i 0 in
    if j = i || (key.[i] = '0' && j > i + 1) || v >= Ir.opcode_cardinality then None
    else
      let acc = (acc * radix) + v + 1 in
      if j = len then if k + 1 = n then Some acc else None
      else if key.[j] = ',' && k + 1 < n then gram (j + 1) (k + 1) acc
      else None
  in
  if n < 1 || n > max_gram then None else gram 0 0 0

let unpack g =
  let rec go g acc = if g = 0 then acc else go (g / radix) ((g mod radix) - 1 :: acc) in
  go g []

(* Mining over gram tables: each table is read once, counting the
   sequences that contain each gram. *)
let mine ~top ~positives ~negatives =
  let presence tables =
    let seqs = Hashtbl.create 1024 in
    List.iter
      (fun tbl ->
        Hashtbl.iter
          (fun g _ -> Hashtbl.replace seqs g (1 + Option.value ~default:0 (Hashtbl.find_opt seqs g)))
          tbl)
      tables;
    seqs
  in
  let pos = presence positives and neg = presence negatives in
  let candidates =
    Hashtbl.fold
      (fun g c acc ->
        let gram = unpack g in
        (gram_key gram, List.length gram, c, g) :: acc)
      pos []
    |> List.sort compare
  in
  let n_pos = float_of_int (max 1 (List.length positives)) in
  let n_neg = float_of_int (max 1 (List.length negatives)) in
  let scored =
    List.filter_map
      (fun (key, n, in_pos, g) ->
        let support = float_of_int in_pos /. n_pos in
        let neg_rate = float_of_int (Option.value ~default:0 (Hashtbl.find_opt neg g)) /. n_neg in
        let confidence = support /. max 1e-9 (support +. neg_rate) in
        if support >= 0.5 && confidence >= 0.7 then Some ((key, n), support *. confidence)
        else None)
      candidates
  in
  (* stable: score ties keep the candidates' (gram key, n) order *)
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
  let rec take k = function [] -> [] | x :: rest -> if k = 0 then [] else fst x :: take (k - 1) rest in
  take top sorted

(* The gram lengths features are mined from. *)
let feature_ns = [ 2; 3; 4 ]

(** Mine discriminative n-grams for one class: high support among positive
    sequences, low presence among negatives. *)
let mine_grams ?(ns = feature_ns) ?(top = 12) ~positives ~negatives () =
  let tables seqs = List.map (fun seq -> gram_counts seq ns) seqs in
  mine ~top ~positives:(tables positives) ~negatives:(tables negatives)

(* -- manual features (§4.1: "we also augment this with manually extracted
   features") -- *)

let manual_of (elt : Ast.element) seq =
  let len = float_of_int (max 1 (Array.length seq)) in
  let density pred = float_of_int (Array.fold_left (fun n o -> if pred o then n + 1 else n) 0 seq) /. len in
  let is i j = Stdlib.( = ) i j in
  (* and/xor only: Or is polluted by the frontend's constant
     materialization idiom *)
  let bitops = density (fun o -> is o 3 || is o 5) in
  let shifts = density (fun o -> is o 6 || is o 7) in
  let loads = density (fun o -> is o 12) in
  let adds = density (fun o -> is o 0) in
  let cmps = density (fun o -> is o 8) in
  (* pointer chasing: inside a bounded loop, a variable that is loaded from
     an array is (possibly across iterations) used as an array index — the
     node-to-child walk of a trie (§4.1's manual LPM feature) *)
  let rec mentions defined (e : Ast.expr) =
    match e with
    | Ast.Local x -> List.mem x defined
    | Ast.Bin (_, a, b) | Ast.Cmp (_, a, b) | Ast.And_also (a, b) | Ast.Or_else (a, b) ->
      mentions defined a || mentions defined b
    | Ast.Not a | Ast.Payload_byte a | Ast.Arr_get (_, a) -> mentions defined a
    | Ast.Api_expr (_, args) -> List.exists (mentions defined) args
    | Ast.Int _ | Ast.Global _ | Ast.Hdr _ | Ast.Packet_len | Ast.Vec_len _ -> false
  in
  let rec body_stmts (stmts : Ast.stmt list) =
    List.concat_map
      (fun (s : Ast.stmt) ->
        match s.Ast.node with
        | Ast.If (_, t, f) -> (s :: body_stmts t) @ body_stmts f
        | Ast.For (_, _, _, b) | Ast.While (_, b) -> s :: body_stmts b
        | _ -> [ s ])
      stmts
  in
  let loop_body_chases body =
    let flat = body_stmts body in
    (* loop-carried: any variable defined by a direct array load *)
    let arr_defined =
      List.filter_map
        (fun (s : Ast.stmt) ->
          match s.Ast.node with Ast.Let (v, Ast.Arr_get (_, _)) -> Some v | _ -> None)
        flat
    in
    arr_defined <> []
    && List.exists
         (fun (s : Ast.stmt) ->
           match s.Ast.node with
           | Ast.Let (_, Ast.Arr_get (_, idx)) -> mentions arr_defined idx
           | _ -> false)
         flat
  in
  let rec loop_chase (stmts : Ast.stmt list) =
    List.exists
      (fun (s : Ast.stmt) ->
        match s.Ast.node with
        | Ast.For (_, _, _, body) | Ast.While (_, body) ->
          loop_body_chases body || loop_chase body
        | Ast.If (_, t, f) -> loop_chase t || loop_chase f
        | _ -> false)
      stmts
  in
  let pointer_chase = if loop_chase (elt.Ast.handler @ List.concat_map snd elt.Ast.subs) then 1.0 else 0.0 in
  let rec max_loop_depth (stmts : Ast.stmt list) =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        match s.Ast.node with
        | Ast.For (_, _, _, body) | Ast.While (_, body) -> max acc (1 + max_loop_depth body)
        | Ast.If (_, t, f) -> max acc (max (max_loop_depth t) (max_loop_depth f))
        | _ -> acc)
      0 stmts
  in
  let depth = float_of_int (max_loop_depth (elt.Ast.handler @ List.concat_map snd elt.Ast.subs)) in
  [| bitops; shifts; loads; adds; cmps; pointer_chase; depth /. 4.0 |]

let opcode_seq elt = opcode_seq_of_ir (Nf_frontend.Lower.lower_element elt)
let manual_features elt = manual_of elt (opcode_seq elt)

(* -- per-component features, computed once -- *)

type features = {
  seq : int array;
  table : (int, int) Hashtbl.t;  (** every [feature_ns]-gram of [seq], packed, with its count *)
  manual : float array;
}

(* Features of a component already lowered to [ir]. *)
let featurize_ir elt ir =
  let seq = opcode_seq_of_ir ir in
  { seq; table = gram_counts seq feature_ns; manual = manual_of elt seq }

let featurize elt = featurize_ir elt (Nf_frontend.Lower.lower_element elt)

(* -- the classifier -- *)

type model = {
  label : Algo_corpus.label;
  grams : (string * int) list;  (** selected (gram key, n) features *)
  svm : Mlkit.Simple.svm;
}

(** Which feature families to use — `Both is Clara; the other two exist
    for the feature-ablation experiment. *)
type feature_mode = [ `Both | `Spe_only | `Manual_only ]

type t = { models : model list; mode : feature_mode }

(* A selected gram packed once: its packed form ([-1] when its key is
   not a gram, so it never occurs), its length, and whether a component's
   [feature_ns] table holds grams of that length. *)
type packed_gram = { packed : int; n : int; in_table : bool }

let pack_grams grams =
  Array.of_list
    (List.map
       (fun (key, n) ->
         { packed = Option.value ~default:(-1) (pack_key key n); n; in_table = List.mem n feature_ns })
       grams)

(* Occurrences of a selected gram in a component; grams of lengths the
   table does not hold are counted by a scan. *)
let gram_count f g =
  if g.packed < 0 then 0
  else
    let table = if g.in_table then f.table else gram_counts f.seq [ g.n ] in
    Option.value ~default:0 (Hashtbl.find_opt table g.packed)

let vector_of mode grams f =
  let len = float_of_int (max 1 (Array.length f.seq)) in
  let gram_feats = Array.map (fun g -> float_of_int (gram_count f g) /. len *. 10.0) grams in
  match mode with
  | `Both -> Array.append gram_feats f.manual
  | `Spe_only -> gram_feats
  | `Manual_only -> Array.copy f.manual

(** Train one-vs-rest SVMs for every accelerator class on the labeled
    corpus of {!Algo_corpus}. *)
let train ?(mode : feature_mode = `Both) ?(corpus : (Ast.element * Algo_corpus.label) list option) () =
  Obs.Span.with_ ~cat:"pipeline" "algo.fit" @@ fun () ->
  let corpus = match corpus with Some c -> c | None -> Algo_corpus.labeled () in
  (* inference classifies loop components, so training must see them too:
     every element contributes its components under the element's label *)
  let corpus =
    List.concat_map
      (fun (elt, label) -> List.map (fun (_, comp) -> (comp, label)) (components elt))
      corpus
  in
  let corpus = List.map (fun (comp, label) -> (featurize comp, label)) corpus in
  let classes = [ Algo_corpus.Crc; Algo_corpus.Lpm; Algo_corpus.Checksum ] in
  let models =
    List.map
      (fun cls ->
        let positives = List.filter_map (fun (f, l) -> if l = cls then Some f.table else None) corpus in
        let negatives = List.filter_map (fun (f, l) -> if l <> cls then Some f.table else None) corpus in
        let grams = mine ~top:12 ~positives ~negatives in
        let packed = pack_grams grams in
        let xs = Array.of_list (List.map (fun (f, _) -> vector_of mode packed f) corpus) in
        let ys =
          Array.of_list (List.map (fun (_, l) -> if l = cls then 1.0 else 0.0) corpus)
        in
        { label = cls; grams; svm = Mlkit.Simple.svm_fit ~epochs:60 xs ys })
      classes
  in
  { models; mode }

(* -- inference over grams packed once -- *)

type compiled = { c_mode : feature_mode; c_models : (model * packed_gram array) list }

(** Pack every model's selected grams, once per trained classifier. *)
let compile t = { c_mode = t.mode; c_models = List.map (fun m -> (m, pack_grams m.grams)) t.models }

let classify_features c f =
  let best = ref (Algo_corpus.Other, 0.0) in
  List.iter
    (fun (m, grams) ->
      let score = Mlkit.Simple.svm_score m.svm (vector_of c.c_mode grams f) in
      if score > 0.0 && score > snd !best then best := (m.label, score))
    c.c_models;
  fst !best

(** Classify one element (or component): the accelerator whose SVM fires
    with the highest margin, or [Other]. *)
let classify t (elt : Ast.element) : Algo_corpus.label = classify_features (compile t) (featurize elt)

(** Scan a full NF already lowered to [ir]: label every component and
    report detected accelerator opportunities as (component name, label).
    The whole-element component reads [ir]; each loop is lowered on its
    own. *)
let detect_compiled c (elt : Ast.element) ir =
  Obs.Span.with_ ~cat:"pipeline" "algo.detect" @@ fun () ->
  List.filter_map
    (fun (name, f) ->
      match classify_features c f with Algo_corpus.Other -> None | l -> Some (name, l))
    ((elt.Ast.name ^ "/all", featurize_ir elt ir)
    :: List.map (fun (name, comp) -> (name, featurize comp)) (loop_components elt))

let detect t elt = detect_compiled (compile t) elt (Nf_frontend.Lower.lower_element elt)

(** Feature vector against a given class model — used by the PCA analysis
    of Figure 10a. *)
let class_features t cls elt =
  match List.find_opt (fun m -> m.label = cls) t.models with
  | Some m -> vector_of t.mode (pack_grams m.grams) (featurize elt)
  | None -> manual_features elt
