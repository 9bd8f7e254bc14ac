(* The per-key featurization that {!Clara.Algo_id} replaced, kept as a
   test-only oracle: every class model lowers each component again and
   rebuilds an n-gram table per selected gram, with string gram keys, and
   mining re-derives a sequence's grams for every candidate it scores.
   The equivalence suite checks that the once-per-component features give
   the same models, labels and feature vectors. *)

open Nf_lang
open Nf_ir
module Algo_corpus = Clara.Algo_corpus

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

(** Analyzable components of an element: loop nests are where accelerator
    algorithms live; the whole handler is included as a fallback. *)
let components (elt : Ast.element) : (string * Ast.element) list =
  let body = elt.Ast.handler @ List.concat_map snd elt.Ast.subs in
  let loops = outermost_loops body in
  let loop_elts =
    List.mapi
      (fun k loop ->
        ( Printf.sprintf "%s/loop%d" elt.Ast.name k,
          { elt with Ast.name = Printf.sprintf "%s_loop%d" elt.Ast.name k; Ast.handler = [ loop ] } ))
      loops
  in
  ((elt.Ast.name ^ "/all", elt) :: loop_elts)

(* -- opcode sequence and n-gram mining -- *)

let opcode_seq (elt : Ast.element) : int array =
  let ir = Nf_frontend.Lower.lower_element elt in
  let seq = ref [] in
  Array.iter
    (fun b -> List.iter (fun (i : Ir.instr) -> seq := Ir.opcode_index i :: !seq) b.Ir.instrs)
    ir.Ir.blocks;
  Array.of_list (List.rev !seq)

let gram_key gram = String.concat "," (List.map string_of_int gram)

let grams_of_seq seq n =
  let len = Array.length seq in
  let out = Hashtbl.create 64 in
  for start = 0 to len - n do
    let g = List.init n (fun k -> seq.(start + k)) in
    let key = gram_key g in
    Hashtbl.replace out key (1 + Option.value ~default:0 (Hashtbl.find_opt out key))
  done;
  out

(** Mine discriminative n-grams for one class: high support among positive
    sequences, low presence among negatives. *)
let mine_grams ?(ns = [ 2; 3; 4 ]) ?(top = 12) ~positives ~negatives () =
  let contains seq key n = Hashtbl.mem (grams_of_seq seq n) key in
  let candidate_keys =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun seq -> Hashtbl.fold (fun k _ acc -> (k, n) :: acc) (grams_of_seq seq n) [])
          positives)
      ns
    |> List.sort_uniq compare
  in
  let n_pos = float_of_int (max 1 (List.length positives)) in
  let n_neg = float_of_int (max 1 (List.length negatives)) in
  let scored =
    List.filter_map
      (fun (key, n) ->
        let support =
          float_of_int (List.length (List.filter (fun s -> contains s key n) positives)) /. n_pos
        in
        let neg_rate =
          float_of_int (List.length (List.filter (fun s -> contains s key n) negatives)) /. n_neg
        in
        let confidence = support /. max 1e-9 (support +. neg_rate) in
        if support >= 0.5 && confidence >= 0.7 then Some ((key, n), support *. confidence)
        else None)
      candidate_keys
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
  let rec take k = function [] -> [] | x :: rest -> if k = 0 then [] else fst x :: take (k - 1) rest in
  take top sorted

(* -- manual features (§4.1: "we also augment this with manually extracted
   features") -- *)

let manual_features (elt : Ast.element) =
  let seq = opcode_seq elt in
  let len = float_of_int (max 1 (Array.length seq)) in
  let density pred = float_of_int (Array.length (Array.of_list (List.filter pred (Array.to_list seq)))) /. len in
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

(* -- the classifier -- *)

type feature_mode = Clara.Algo_id.feature_mode
type t = Clara.Algo_id.t = { models : Clara.Algo_id.model list; mode : feature_mode }
type model = Clara.Algo_id.model = {
  label : Algo_corpus.label;
  grams : (string * int) list;
  svm : Mlkit.Simple.svm;
}

let feature_vector ?(mode : feature_mode = `Both) grams (elt : Ast.element) =
  let seq = opcode_seq elt in
  let len = float_of_int (max 1 (Array.length seq)) in
  let gram_feats =
    List.map
      (fun (key, n) ->
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt (grams_of_seq seq n) key)) /. len *. 10.0)
      grams
  in
  match mode with
  | `Both -> Array.append (Array.of_list gram_feats) (manual_features elt)
  | `Spe_only -> Array.of_list gram_feats
  | `Manual_only -> manual_features elt

(** Train one-vs-rest SVMs for every accelerator class on the labeled
    corpus of {!Algo_corpus}. *)
let train ?(mode : feature_mode = `Both) ?(corpus : (Ast.element * Algo_corpus.label) list option) () =
  let corpus = match corpus with Some c -> c | None -> Algo_corpus.labeled () in
  (* inference classifies loop components, so training must see them too:
     every element contributes its components under the element's label *)
  let corpus =
    List.concat_map
      (fun (elt, label) -> List.map (fun (_, comp) -> (comp, label)) (components elt))
      corpus
  in
  let classes = [ Algo_corpus.Crc; Algo_corpus.Lpm; Algo_corpus.Checksum ] in
  let models =
    List.map
      (fun cls ->
        let positives =
          List.filter_map (fun (e, l) -> if l = cls then Some (opcode_seq e) else None) corpus
        in
        let negatives =
          List.filter_map (fun (e, l) -> if l <> cls then Some (opcode_seq e) else None) corpus
        in
        let grams = mine_grams ~positives ~negatives () in
        let xs = Array.of_list (List.map (fun (e, _) -> feature_vector ~mode grams e) corpus) in
        let ys =
          Array.of_list (List.map (fun (_, l) -> if l = cls then 1.0 else 0.0) corpus)
        in
        { label = cls; grams; svm = Mlkit.Simple.svm_fit ~epochs:60 xs ys })
      classes
  in
  { models; mode }

(** Classify one element (or component): the accelerator whose SVM fires
    with the highest margin, or [Other]. *)
let classify t (elt : Ast.element) : Algo_corpus.label =
  let best = ref (Algo_corpus.Other, 0.0) in
  List.iter
    (fun m ->
      let score = Mlkit.Simple.svm_score m.svm (feature_vector ~mode:t.mode m.grams elt) in
      if score > 0.0 && score > snd !best then best := (m.label, score))
    t.models;
  fst !best

(** Scan a full NF: label every component and report detected accelerator
    opportunities as (component name, label). *)
let detect t (elt : Ast.element) =
  List.filter_map
    (fun (name, comp) ->
      match classify t comp with Algo_corpus.Other -> None | l -> Some (name, l))
    (components elt)

(** Feature vector against a given class model — used by the PCA analysis
    of Figure 10a. *)
let class_features t cls elt =
  match List.find_opt (fun m -> m.label = cls) t.models with
  | Some m -> feature_vector ~mode:t.mode m.grams elt
  | None -> manual_features elt
