(** Consistent-hash ring over worker names.

    The ring is the router's placement function: each worker contributes
    [vnodes] virtual points (FNV-1a/64 of ["name#i"], passed through the
    splitmix64 finalizer — raw FNV of short similar strings clusters in
    the high bits that decide ring order), sorted; a key maps to the
    first point clockwise of its own (identically mixed) hash.  Two properties the
    test suite pins:

    - {b Determinism.}  The mapping is a pure function of the member set,
      [vnodes] and the key — independent of insertion order, process, or
      [CLARA_JOBS].  The pin test rebuilds it from an independent
      reimplementation of FNV-1a and sorting.
    - {b Bounded movement.}  Adding or removing one member only remaps
      keys whose clockwise-first point belonged to that member's vnodes —
      about [1/n] of the keyspace; keys mapped to surviving members stay
      put.

    The canary draw lives here too: a pure splitmix64 hash of
    [(seed, key)] to a unit float, so the canaried fraction of keyspace
    is identical whatever order requests arrive in. *)

type t

(** FNV-1a 64-bit of a string (exposed so tests can pin the ring against
    an independent reimplementation). *)
val fnv64 : string -> int64

(** Build a ring over [names] (deduplicated, order-irrelevant).
    [vnodes] points per member, default 64, must be [>= 1]. *)
val create : ?vnodes:int -> string list -> t

(** Sorted, deduplicated member set. *)
val members : t -> string list

(** The member owning [key] — first vnode clockwise of [fnv64 key],
    wrapping; [None] iff the ring is empty. *)
val lookup : t -> string -> string option

(** Unit-interval draw for canary selection: pure in [(seed, key)].
    A request is canaried when its draw is [< fraction]. *)
val canary_draw : seed:int -> string -> float
