(** Small dense linear-algebra kernels: vectors are [float array], matrices
    row-major [float array array] — sized for hidden dims of tens and
    feature dims of hundreds. *)

val vec : int -> float array
val mat : int -> int -> float array array

(** Xavier-style random initialization. *)
val randn_mat : Util.Rng.t -> int -> int -> float array array

val dot : float array -> float array -> float
val mat_vec : float array array -> float array -> float array

(** Accumulate m*x into dst. *)
val mat_vec_add_into : float array -> float array array -> float array -> unit

(** Accumulate column [j] of [m] into [dst] — one-hot multiplication, the
    fast path for one-hot-encoded words. *)
val add_column_into : float array -> float array array -> int -> unit

(** y <- y + alpha * x. *)
val axpy : float -> float array -> float array -> unit

val scale_vec : float -> float array -> float array
val sub_vec : float array -> float array -> float array
val l2_norm : float array -> float
val euclidean : float array -> float array -> float

(** g <- g + a * b^T (backprop outer product). *)
val outer_add_into : float array array -> float array -> float array -> unit

(** m^T * a (gradient wrt a linear layer's input). *)
val mat_t_vec : float array array -> float array -> float array

val sigmoid : float -> float

(** Derivative given the *output* value. *)
val dsigmoid : float -> float

val dtanh : float -> float
val relu : float -> float
val mean_vec : float array array -> float array

(** Column-wise standardization; near-constant columns get unit scale so
    unseen values cannot explode at inference.  Returns (transformed,
    mean, std). *)
val standardize : float array array -> float array array * float array * float array

val apply_standardize : float array -> float array -> float array -> float array

(** Flat row-major matrices for the hot training loops.  Every kernel
    preserves the floating-point evaluation order of its naive
    counterpart, so results are bit-identical to the row-of-rows code it
    replaces (checked against {!Naive} by the equivalence suite). *)
module Flat : sig
  type mat = { a : float array; rows : int; cols : int }

  val create : int -> int -> mat
  val copy : mat -> mat
  val fill : mat -> float -> unit
  val get : mat -> int -> int -> float
  val set : mat -> int -> int -> float -> unit

  (** Xavier-style init; same draw order as {!randn_mat}. *)
  val randn : Util.Rng.t -> int -> int -> mat

  val of_rows : float array array -> mat
  val to_rows : mat -> float array array

  (** dst <- dst + m * x. *)
  val gemv_add : float array -> mat -> float array -> unit

  (** dst <- dst + m^T * y. *)
  val gemv_t_add : float array -> mat -> float array -> unit

  (** dst <- dst + column j of m (one-hot fast path). *)
  val add_col_into : float array -> mat -> int -> unit

  (** g <- g + a * b^T. *)
  val outer_add : mat -> float array -> float array -> unit

  (** c <- a * b, cache-blocked over a packed transpose of b; each cell
      sums k ascending so the result matches the textbook triple loop
      bit-for-bit.
      @raise Invalid_argument on dimension mismatch. *)
  val gemm : a:mat -> b:mat -> mat -> unit
end
