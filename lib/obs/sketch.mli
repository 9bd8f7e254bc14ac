(** Mergeable constant-memory streaming quantile sketch.

    DDSketch-style log-bucketed histogram with a relative-error
    guarantee: for any quantile [q], the reported value is within a
    relative [alpha] of the true value (for magnitudes inside
    [[min_mag, max_mag]]).  Unlike the collapsing DDSketch variant the
    bucket index range is fixed at creation, so {!merge} is an
    element-wise integer add: exactly associative and commutative,
    which makes sketch contents bit-identical regardless of how
    samples were partitioned across shards or domains.  Handles
    signed values (separate positive/negative stores plus a zero
    bucket), so signed relative prediction errors can be sketched
    directly.  All operations are thread-safe. *)

type t

val create : ?alpha:float -> ?min_mag:float -> ?max_mag:float -> unit -> t
(** [create ()] makes an empty sketch.  [alpha] (default 0.01) is the
    relative-error bound; [min_mag] (default 1e-6) is the magnitude
    below which values count as zero; [max_mag] (default 1e9) clamps
    the largest tracked magnitude.  Raises [Invalid_argument] unless
    [0 < alpha < 1] and [0 < min_mag < max_mag]. *)

val alpha : t -> float
(** Relative-error bound this sketch was created with. *)

val add : t -> float -> unit
(** Record one sample.  Non-finite values are ignored. *)

val count : t -> int
(** Number of samples recorded. *)

val sum : t -> float
(** Exact running sum of recorded samples. *)

val min_value : t -> float
(** Exact minimum recorded sample ([infinity] when empty). *)

val max_value : t -> float
(** Exact maximum recorded sample ([neg_infinity] when empty). *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]: a value within relative
    [alpha] of the true [q]-quantile of the recorded samples.  [nan]
    when the sketch is empty.  Raises [Invalid_argument] on [q]
    outside [[0, 1]]. *)

val merge : t -> t -> t
(** [merge a b] is a fresh sketch holding the union of both sample
    streams.  Exactly associative and commutative on bucket counts.
    Raises [Invalid_argument] if the sketches were created with
    different [alpha]/[min_mag]/[max_mag]. *)

val reset : t -> unit
(** Drop all recorded samples, keeping the geometry. *)

val to_json_string : ?name:string -> t -> string
(** One-line JSON object: [alpha], [count], [zero], [sum], [min],
    [max] and the p50/p90/p99/p999 quantiles. *)

