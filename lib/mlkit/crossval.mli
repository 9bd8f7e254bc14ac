(** K-fold cross-validation utilities: variance-aware accuracy reporting
    and model-family selection for the smaller training corpora of this
    reproduction. *)

(** Deterministic folds: [(train, test)] index arrays.
    @raise Invalid_argument unless 2 <= k <= n. *)
val kfold : ?seed:int -> k:int -> int -> (int array * int array) list

(** (mean, stddev) of the per-fold held-out MAE of a regression family. *)
val cv_regression :
  ?seed:int ->
  k:int ->
  fit:(float array array -> float array -> 'model) ->
  predict:('model -> float array -> float) ->
  float array array ->
  float array ->
  float * float

(** The (name, mean MAE) of the best candidate under K-fold CV. *)
val select_regression :
  ?seed:int ->
  ?k:int ->
  (string * (float array array -> float array -> 'model) * ('model -> float array -> float)) list ->
  float array array ->
  float array ->
  string * float
