(** K-fold cross-validation utilities.

    Used to pick hyperparameters and to report variance-aware accuracy for
    the smaller training sets in this reproduction (the paper reports
    train-converged accuracies; CV guards our smaller corpora against
    overfitting artefacts). *)

(** Deterministic K-fold index split: returns [(train, test)] index arrays
    for each fold.  Fold membership and within-fold order are a direct
    function of the shuffled position ([pos mod k]), never of an
    accumulation direction, so chunked parallel iteration over folds sees
    exactly the order a serial loop would. *)
let kfold ?(seed = 47) ~k n =
  if k < 2 || k > n then invalid_arg "Crossval.kfold: need 2 <= k <= n";
  let rng = Util.Rng.create seed in
  let idx = Array.init n (fun i -> i) in
  Util.Rng.shuffle rng idx;
  let in_fold fold pos = pos mod k = fold in
  let positions p = Array.of_seq (Seq.filter p (Seq.init n Fun.id)) in
  List.init k (fun fold ->
      ( Array.map (fun pos -> idx.(pos)) (positions (fun pos -> not (in_fold fold pos))),
        Array.map (fun pos -> idx.(pos)) (positions (in_fold fold)) ))

(** Fit/score every fold independently on the domain pool; fold scores come
    back in fold order, so the reported mean/stddev are identical to a
    serial run. *)
let fold_scores ~score folds =
  Array.of_list (Util.Pool.parallel_map_list ~chunk:1 score folds)

(** Mean and standard deviation of a per-fold metric for a regression
    model family.  [fit xs ys] trains, [predict model x] infers, and the
    score of each fold is the MAE on its held-out part. *)
let cv_regression ?(seed = 47) ~k ~fit ~predict xs ys =
  let n = Array.length xs in
  let arr =
    fold_scores
      ~score:(fun (train_idx, test_idx) ->
        let tx = Array.map (fun i -> xs.(i)) train_idx in
        let ty = Array.map (fun i -> ys.(i)) train_idx in
        let model = fit tx ty in
        let preds = Array.map (fun i -> predict model xs.(i)) test_idx in
        let truth = Array.map (fun i -> ys.(i)) test_idx in
        Metrics.mae preds truth)
      (kfold ~seed ~k n)
  in
  (Util.Stats.mean arr, Util.Stats.stddev arr)

(** Pick the argmin-mean-MAE candidate from a labeled list of regression
    model families under K-fold CV. *)
let select_regression ?(seed = 47) ?(k = 5) candidates xs ys =
  let scored =
    List.map
      (fun (name, fit, predict) ->
        let mean, _ = cv_regression ~seed ~k ~fit ~predict xs ys in
        (name, mean))
      candidates
  in
  List.fold_left
    (fun (bn, bs) (name, score) -> if score < bs then (name, score) else (bn, bs))
    ("", infinity) scored
