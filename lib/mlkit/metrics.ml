(** Evaluation metrics used throughout the paper's evaluation section. *)

(** Weighted mean absolute percentage error: sum |y - yhat| / sum |y|. *)
let wmape preds truths =
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i p ->
      num := !num +. abs_float (p -. truths.(i));
      den := !den +. abs_float truths.(i))
    preds;
  if !den <= 0.0 then 0.0 else !num /. !den

let mae preds truths =
  let n = Array.length preds in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iteri (fun i p -> acc := !acc +. abs_float (p -. truths.(i))) preds;
    !acc /. float_of_int n
  end


(** Precision/recall over binary predictions (1.0 = positive). *)
let precision_recall preds truths =
  let tp = ref 0 and fp = ref 0 and fn = ref 0 in
  Array.iteri
    (fun i p ->
      let pos = p > 0.5 and t = truths.(i) > 0.5 in
      match (pos, t) with
      | true, true -> incr tp
      | true, false -> incr fp
      | false, true -> incr fn
      | false, false -> ())
    preds;
  let precision =
    if !tp + !fp = 0 then 1.0 else float_of_int !tp /. float_of_int (!tp + !fp)
  in
  let recall = if !tp + !fn = 0 then 1.0 else float_of_int !tp /. float_of_int (!tp + !fn) in
  (precision, recall)

let accuracy preds truths =
  let n = Array.length preds in
  if n = 0 then 0.0
  else begin
    let ok = ref 0 in
    Array.iteri (fun i p -> if Stdlib.( = ) (p > 0.5) (truths.(i) > 0.5) then incr ok) preds;
    float_of_int !ok /. float_of_int n
  end

(** Split indices deterministically into train/test. *)
let train_test_split ?(seed = 31) ~test_fraction n =
  let rng = Util.Rng.create seed in
  let idx = Array.init n (fun i -> i) in
  Util.Rng.shuffle rng idx;
  let n_test = int_of_float (test_fraction *. float_of_int n) in
  (Array.sub idx n_test (n - n_test), Array.sub idx 0 n_test)
