(** Evaluation metrics used throughout the paper's evaluation section. *)

(** Weighted mean absolute percentage error: sum |y - yhat| / sum |y| (the
    Figure 8 accuracy metric). *)
val wmape : float array -> float array -> float

val mae : float array -> float array -> float

(** (precision, recall) over binary predictions; 1.0 = positive. *)
val precision_recall : float array -> float array -> float * float

val accuracy : float array -> float array -> float

(** Deterministic (train indices, test indices) split of [0..n). *)
val train_test_split : ?seed:int -> test_fraction:float -> int -> int array * int array
