(** Deterministic, splittable pseudo-random number generator (splitmix64).
    All randomness in the repository flows through this module so every
    experiment is reproducible from a single integer seed. *)

type t

val create : int -> t

(** Advance and return the next mixed 64-bit value. *)
val next_int64 : t -> int64

(** Fork an independent generator; the parent stream advances once. *)
val split : t -> t

(** Uniform integer in [0, bound).
    @raise Invalid_argument unless bound > 0. *)
val int : t -> int -> int

(** Fill [dst.(pos .. pos+len-1)] with the exact bytes [len] successive
    [int t 256] calls would yield, advancing the state identically, but
    without a per-byte boxed-int64 round trip through the record.
    @raise Invalid_argument when the range is out of bounds. *)
val fill_bytes : t -> Bytes.t -> int -> int -> unit

(** Uniform float in [0, 1). *)
val float : t -> float

val float_range : t -> float -> float -> float

(** Standard normal via Box-Muller. *)
val gaussian : t -> float

val bool : t -> bool

(** Bernoulli trial with probability [p]. *)
val bernoulli : t -> float -> bool

(** Uniform element of a non-empty list. *)
val choose : t -> 'a list -> 'a

(** Index sampled proportionally to non-negative [weights].
    @raise Invalid_argument when no weight is positive. *)
val weighted_index : t -> float array -> int

(** Precomputed cumulative table for repeated weighted draws.  Sampling
    through it advances the generator once and returns exactly the index
    {!weighted_index} would for the same weights and state (same
    accumulation order, same comparison), in O(log n) instead of O(n). *)
type cdf

(** @raise Invalid_argument when [weights] is empty or no weight is
    positive. *)
val cdf_of_weights : float array -> cdf

val weighted_index_cdf : t -> cdf -> int

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** [k] distinct indices from [0, n). *)
val sample_without_replacement : t -> int -> int -> int array
