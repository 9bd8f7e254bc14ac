(** Mergeable constant-memory streaming quantile sketch (see sketch.mli). *)

(* DDSketch-style log-bucketed histogram over a *fixed* index range.
   Values are mapped to buckets by ceil(ln |v| / ln gamma) with
   gamma = (1 + alpha) / (1 - alpha); the representative value of bucket
   [i] is the bucket midpoint 2*gamma^i / (gamma + 1), which is within a
   relative [alpha] of every value the bucket covers.  Unlike the
   collapsing DDSketch variant, the bucket range here is fixed at
   creation (magnitudes are clamped into [min_mag, max_mag]), so a merge
   is an element-wise integer add — exactly associative and commutative,
   which the determinism tests rely on.  Signed values keep separate
   positive and negative stores plus a zero bucket. *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  min_mag : float;
  max_mag : float;
  idx_lo : int; (* bucket index of min_mag *)
  pos : int array;
  neg : int array;
  mutable zero : int;
  mutable k_count : int;
  mutable k_sum : float;
  mutable k_min : float;
  mutable k_max : float;
  lock : Mutex.t;
}

let create ?(alpha = 0.01) ?(min_mag = 1e-6) ?(max_mag = 1e9) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Obs.Sketch.create: alpha must be in (0, 1)";
  if not (min_mag > 0.0 && max_mag > min_mag) then
    invalid_arg "Obs.Sketch.create: need 0 < min_mag < max_mag";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  let log_gamma = log gamma in
  let idx_lo = int_of_float (Float.floor (log min_mag /. log_gamma)) in
  let idx_hi = int_of_float (Float.ceil (log max_mag /. log_gamma)) in
  let n = idx_hi - idx_lo + 1 in
  { alpha; gamma; log_gamma; min_mag; max_mag; idx_lo;
    pos = Array.make n 0; neg = Array.make n 0;
    zero = 0; k_count = 0; k_sum = 0.0; k_min = infinity; k_max = neg_infinity;
    lock = Mutex.create () }

let alpha t = t.alpha

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Bucket index of a magnitude, clamped into the fixed range. *)
let index_of t m =
  let m = Float.min t.max_mag m in
  let i = int_of_float (Float.ceil (log m /. t.log_gamma)) in
  let n = Array.length t.pos in
  max 0 (min (n - 1) (i - t.idx_lo))

(* Midpoint representative of bucket [slot]: exact inverse of
   {!index_of} up to the alpha bound. *)
let rep_of t slot =
  2.0 *. exp (float_of_int (slot + t.idx_lo) *. t.log_gamma) /. (t.gamma +. 1.0)

let add t v =
  if Float.is_finite v then
    with_lock t @@ fun () ->
    let m = Float.abs v in
    if m < t.min_mag then t.zero <- t.zero + 1
    else begin
      let slot = index_of t m in
      if v > 0.0 then t.pos.(slot) <- t.pos.(slot) + 1
      else t.neg.(slot) <- t.neg.(slot) + 1
    end;
    t.k_count <- t.k_count + 1;
    t.k_sum <- t.k_sum +. v;
    if v < t.k_min then t.k_min <- v;
    if v > t.k_max then t.k_max <- v

let count t = with_lock t (fun () -> t.k_count)
let sum t = with_lock t (fun () -> t.k_sum)
let min_value t = with_lock t (fun () -> t.k_min)
let max_value t = with_lock t (fun () -> t.k_max)

let same_geometry a b =
  a.alpha = b.alpha && a.min_mag = b.min_mag && a.max_mag = b.max_mag
  && Array.length a.pos = Array.length b.pos

let merge a b =
  if not (same_geometry a b) then
    invalid_arg "Obs.Sketch.merge: sketches have different geometry";
  (* copy both under their own locks, then combine the immutable copies *)
  let snap t =
    with_lock t (fun () ->
        (Array.copy t.pos, Array.copy t.neg, t.zero, t.k_count, t.k_sum, t.k_min, t.k_max))
  in
  let pa, na, za, ca, sa, mina, maxa = snap a in
  let pb, nb, zb, cb, sb, minb, maxb = snap b in
  let out = create ~alpha:a.alpha ~min_mag:a.min_mag ~max_mag:a.max_mag () in
  Array.iteri (fun i v -> out.pos.(i) <- v + pb.(i)) pa;
  Array.iteri (fun i v -> out.neg.(i) <- v + nb.(i)) na;
  out.zero <- za + zb;
  out.k_count <- ca + cb;
  out.k_sum <- sa +. sb;
  out.k_min <- Float.min mina minb;
  out.k_max <- Float.max maxa maxb;
  out

(* Quantile by cumulative walk in value order: negatives from the most
   negative bucket (highest slot) down, then zeros, then positives from
   the smallest slot up.  Rank is the DDSketch convention
   ceil(q * count), clamped to [1, count]. *)
let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Obs.Sketch.quantile: q must be in [0, 1]";
  with_lock t @@ fun () ->
  if t.k_count = 0 then nan
  else begin
    let rank = max 1 (min t.k_count (int_of_float (Float.ceil (q *. float_of_int t.k_count)))) in
    let n = Array.length t.pos in
    let acc = ref 0 in
    let result = ref nan in
    (try
       for slot = n - 1 downto 0 do
         if t.neg.(slot) > 0 then begin
           acc := !acc + t.neg.(slot);
           if !acc >= rank then begin
             result := -.rep_of t slot;
             raise Exit
           end
         end
       done;
       if t.zero > 0 then begin
         acc := !acc + t.zero;
         if !acc >= rank then begin
           result := 0.0;
           raise Exit
         end
       end;
       for slot = 0 to n - 1 do
         if t.pos.(slot) > 0 then begin
           acc := !acc + t.pos.(slot);
           if !acc >= rank then begin
             result := rep_of t slot;
             raise Exit
           end
         end
       done
     with Exit -> ());
    !result
  end

let reset t =
  with_lock t @@ fun () ->
  Array.fill t.pos 0 (Array.length t.pos) 0;
  Array.fill t.neg 0 (Array.length t.neg) 0;
  t.zero <- 0;
  t.k_count <- 0;
  t.k_sum <- 0.0;
  t.k_min <- infinity;
  t.k_max <- neg_infinity

(* -- export -- *)

let fmt_float f = if Float.is_finite f then Printf.sprintf "%.12g" f else "null"

let export_quantiles = [ (0.5, "p50"); (0.9, "p90"); (0.99, "p99"); (0.999, "p999") ]

let to_json_string ?(name = "") t =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  if name <> "" then Buffer.add_string b (Printf.sprintf "\"name\":%S," name);
  Buffer.add_string b
    (Printf.sprintf "\"alpha\":%s,\"count\":%d,\"zero\":%d,\"sum\":%s,\"min\":%s,\"max\":%s"
       (fmt_float t.alpha) (count t)
       (with_lock t (fun () -> t.zero))
       (fmt_float (sum t))
       (fmt_float (min_value t))
       (fmt_float (max_value t)));
  List.iter
    (fun (q, label) ->
      Buffer.add_string b (Printf.sprintf ",\"%s\":%s" label (fmt_float (quantile t q))))
    export_quantiles;
  Buffer.add_char b '}';
  Buffer.contents b

