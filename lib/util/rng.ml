(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    splitmix64: a small, fast, well-tested mixing function whose streams can
    be forked with [split] without correlation between parent and child. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(** Advance the state and return the next mixed 64-bit value. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Fork an independent generator; the parent stream is advanced once. *)
let split t =
  let seed = next_int64 t in
  { state = Int64.mul seed 0xDA942042E4DD58B5L }

(** Uniform integer in [\[0, bound)].  [bound] must be positive. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the Int64 -> int conversion never wraps negative *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** Fill [dst.(pos .. pos+len-1)] with the exact byte sequence that [len]
    successive [int t 256] calls would produce (one state advance per
    byte).  The mix runs on a local state cell so the hot loop touches the
    record field once at entry and once at exit; for the non-negative
    62-bit [v] the [mod 256] of {!int} is [land 255]. *)
let fill_bytes t dst pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg "Rng.fill_bytes: range out of bounds";
  let s = ref t.state in
  for i = pos to pos + len - 1 do
    let st = Int64.add !s golden_gamma in
    s := st;
    let z = Int64.mul (Int64.logxor st (Int64.shift_right_logical st 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let v = Int64.to_int (Int64.shift_right_logical z 2) in
    Bytes.unsafe_set dst i (Char.unsafe_chr (v land 255))
  done;
  t.state <- !s

(** Uniform float in [\[0, 1)]. *)
let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

(** Uniform float in [\[lo, hi)]. *)
let float_range t lo hi = lo +. ((hi -. lo) *. float t)

(** Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Bernoulli trial with probability [p]. *)
let bernoulli t p = float t < p

(** Pick a uniformly random element of a non-empty list. *)
let choose t items =
  match items with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth items (int t (List.length items))

(** Pick an index according to non-negative [weights]; at least one weight
    must be strictly positive. *)
let weighted_index t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: no positive weight";
  let target = float t *. total in
  let rec scan i acc =
    if i = Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

(** Precomputed cumulative-weight table for repeated weighted draws.
    [cum.(i)] is built by the same left-to-right [acc +. w] accumulation
    as the linear scan in {!weighted_index}, and the lookup uses the same
    [target < cum] predicate, so a draw through the table consumes one
    state advance and returns the exact index the scan would — it is a
    drop-in O(log n) replacement, bit-for-bit. *)
type cdf = { cum : float array }

let cdf_of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.cdf_of_weights: empty weights";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. weights.(i);
    cum.(i) <- !acc
  done;
  if cum.(n - 1) <= 0.0 then invalid_arg "Rng.weighted_index: no positive weight";
  { cum }

let weighted_index_cdf t { cum } =
  let n = Array.length cum in
  let target = float t *. cum.(n - 1) in
  (* first index in [0, n-2] with target < cum.(i); default n-1 — the same
     answer as the linear scan, found by bisection *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if target < cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(** In-place Fisher-Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** Sample [k] distinct indices from [\[0, n)]. *)
let sample_without_replacement t n k =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.sub arr 0 k
