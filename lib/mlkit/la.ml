(** Small dense linear-algebra kernels for the ML toolkit.

    Vectors are [float array], matrices are row-major [float array array].
    Everything is allocation-explicit and good enough for the model sizes
    Clara needs (hidden dims of tens, feature dims of hundreds). *)

let vec n = Array.make n 0.0

let mat rows cols = Array.init rows (fun _ -> Array.make cols 0.0)

(** Xavier-style random initialization. *)
let randn_mat rng rows cols =
  let scale = sqrt (2.0 /. float_of_int (rows + cols)) in
  Array.init rows (fun _ -> Array.init cols (fun _ -> scale *. Util.Rng.gaussian rng))

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(** [mat_vec m x] = m * x. *)
let mat_vec m x =
  Array.map (fun row -> dot row x) m

(** [mat_vec_add_into dst m x] accumulates m*x into dst. *)
let mat_vec_add_into dst m x =
  Array.iteri (fun i row -> dst.(i) <- dst.(i) +. dot row x) m

(** Accumulate column [j] of [m] into [dst] — multiplication by a one-hot
    vector, the fast path for one-hot-encoded instruction words. *)
let add_column_into dst m j =
  for i = 0 to Array.length m - 1 do
    dst.(i) <- dst.(i) +. m.(i).(j)
  done

let axpy alpha x y =
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let scale_vec alpha x = Array.map (fun v -> alpha *. v) x

let sub_vec a b = Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let l2_norm x = sqrt (dot x x)

let euclidean a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

(** Outer-product accumulation: g += a * b^T, used by backprop. *)
let outer_add_into g a b =
  for i = 0 to Array.length a - 1 do
    let gi = g.(i) in
    let ai = a.(i) in
    for j = 0 to Array.length b - 1 do
      gi.(j) <- gi.(j) +. (ai *. b.(j))
    done
  done

(** g^T * a: gradient wrt the input of a linear layer. *)
let mat_t_vec m a =
  let cols = if Array.length m = 0 then 0 else Array.length m.(0) in
  let out = vec cols in
  for i = 0 to Array.length m - 1 do
    let row = m.(i) in
    let ai = a.(i) in
    for j = 0 to cols - 1 do
      out.(j) <- out.(j) +. (row.(j) *. ai)
    done
  done;
  out

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))
let dsigmoid y = y *. (1.0 -. y)  (* derivative given the output *)
let dtanh y = 1.0 -. (y *. y)

let relu x = if x > 0.0 then x else 0.0

let mean_vec xs =
  let n = Array.length xs in
  let dim = Array.length xs.(0) in
  let m = vec dim in
  Array.iter (fun x -> axpy (1.0 /. float_of_int n) x m) xs;
  m

(** Standardize features column-wise; returns (transformed, mean, std). *)
let standardize xs =
  let n = Array.length xs in
  if n = 0 then ([||], [||], [||])
  else begin
    let dim = Array.length xs.(0) in
    let mu = mean_vec xs in
    let sd = vec dim in
    Array.iter (fun x -> Array.iteri (fun j v -> sd.(j) <- sd.(j) +. ((v -. mu.(j)) ** 2.0)) x) xs;
    (* near-constant features get unit scale: dividing by a vanishing sd
       would explode unseen values at inference time *)
    let sd =
      Array.map
        (fun s ->
          let v = sqrt (s /. float_of_int n) in
          if v < 1e-6 then 1.0 else v)
        sd
    in
    let out = Array.map (fun x -> Array.mapi (fun j v -> (v -. mu.(j)) /. sd.(j)) x) xs in
    (out, mu, sd)
  end

let apply_standardize x mu sd = Array.mapi (fun j v -> (v -. mu.(j)) /. sd.(j)) x

(** Flat-buffer matrices for the hot training loops.

    One contiguous [float array] in row-major order replaces the boxed
    row-of-rows representation: no per-row bounds metadata, no pointer
    chasing, and a whole matrix streams through cache linearly.  Every
    kernel keeps the exact floating-point evaluation order of its naive
    counterpart above (same accumulation direction, same start values),
    so swapping representations is bit-invisible — the equivalence suite
    checks this against the retained {!Naive} reference. *)
module Flat = struct
  type mat = { a : float array; rows : int; cols : int }

  let create rows cols = { a = Array.make (rows * cols) 0.0; rows; cols }

  let copy m = { m with a = Array.copy m.a }

  let fill m v = Array.fill m.a 0 (Array.length m.a) v

  let get m i j = m.a.((i * m.cols) + j)
  let set m i j v = m.a.((i * m.cols) + j) <- v

  (** Xavier-style random initialization; draws in row-major order, the
      same stream order as {!randn_mat}. *)
  let randn rng rows cols =
    let scale = sqrt (2.0 /. float_of_int (rows + cols)) in
    let m = create rows cols in
    for k = 0 to (rows * cols) - 1 do
      m.a.(k) <- scale *. Util.Rng.gaussian rng
    done;
    m

  let of_rows rows_m =
    let rows = Array.length rows_m in
    let cols = if rows = 0 then 0 else Array.length rows_m.(0) in
    let m = create rows cols in
    for i = 0 to rows - 1 do
      Array.blit rows_m.(i) 0 m.a (i * cols) cols
    done;
    m

  let to_rows m = Array.init m.rows (fun i -> Array.sub m.a (i * m.cols) m.cols)

  (** dst <- dst + m * x (each row dotted left-to-right, like
      {!mat_vec_add_into}). *)
  let gemv_add dst m x =
    let cols = m.cols in
    if Array.length x < cols || Array.length dst < m.rows then
      invalid_arg "La.Flat.gemv_add: dimension mismatch";
    let ma = m.a in
    for i = 0 to m.rows - 1 do
      let base = i * cols in
      let acc = ref 0.0 in
      for j = 0 to cols - 1 do
        acc := !acc +. (Array.unsafe_get ma (base + j) *. Array.unsafe_get x j)
      done;
      dst.(i) <- dst.(i) +. !acc
    done

  (** dst <- dst + m^T * y, accumulating rows in ascending order like
      {!mat_t_vec}. *)
  let gemv_t_add dst m y =
    let cols = m.cols in
    if Array.length y < m.rows || Array.length dst < cols then
      invalid_arg "La.Flat.gemv_t_add: dimension mismatch";
    let ma = m.a in
    for i = 0 to m.rows - 1 do
      let base = i * cols in
      let yi = Array.unsafe_get y i in
      for j = 0 to cols - 1 do
        Array.unsafe_set dst j (Array.unsafe_get dst j +. (Array.unsafe_get ma (base + j) *. yi))
      done
    done

  (** dst <- dst + column j of m (one-hot fast path, like
      {!add_column_into}). *)
  let add_col_into dst m j =
    let cols = m.cols in
    if j < 0 || j >= cols || Array.length dst < m.rows then
      invalid_arg "La.Flat.add_col_into: dimension mismatch";
    let ma = m.a in
    for i = 0 to m.rows - 1 do
      Array.unsafe_set dst i (Array.unsafe_get dst i +. Array.unsafe_get ma ((i * cols) + j))
    done

  (** g <- g + a * b^T (backprop outer product, like {!outer_add_into}). *)
  let outer_add g av bv =
    let cols = g.cols in
    if Array.length av < g.rows || Array.length bv < cols then
      invalid_arg "La.Flat.outer_add: dimension mismatch";
    let ga = g.a in
    for i = 0 to g.rows - 1 do
      let base = i * cols in
      let ai = Array.unsafe_get av i in
      for j = 0 to cols - 1 do
        Array.unsafe_set ga (base + j) (Array.unsafe_get ga (base + j) +. (ai *. Array.unsafe_get bv j))
      done
    done

  (** c <- a * b, blocked for cache.  b is packed transposed once so the
      k-loop streams two contiguous rows; the per-cell sum still runs k
      ascending, so every c[i,j] is bit-identical to the textbook triple
      loop.  Tiles only reorder independent cells. *)
  let gemm ~a ~b c =
    if a.cols <> b.rows || c.rows <> a.rows || c.cols <> b.cols then
      invalid_arg "La.Flat.gemm: dimension mismatch";
    let kdim = a.cols and n = b.cols in
    let bt = Array.make (kdim * n) 0.0 in
    for k = 0 to kdim - 1 do
      let base = k * n in
      for j = 0 to n - 1 do
        bt.((j * kdim) + k) <- b.a.(base + j)
      done
    done;
    let aa = a.a in
    let tile = 48 in
    let jt = ref 0 in
    while !jt < n do
      let jhi = min n (!jt + tile) in
      for i = 0 to a.rows - 1 do
        let abase = i * kdim in
        let cbase = i * n in
        (* two output cells per pass share each a[i,k] load; the two sums
           stay independent and k-ascending, so cells are bit-identical to
           the one-cell loop *)
        let j = ref !jt in
        while !j + 1 < jhi do
          let bbase0 = !j * kdim and bbase1 = (!j + 1) * kdim in
          let acc0 = ref 0.0 and acc1 = ref 0.0 in
          for k = 0 to kdim - 1 do
            let av = Array.unsafe_get aa (abase + k) in
            acc0 := !acc0 +. (av *. Array.unsafe_get bt (bbase0 + k));
            acc1 := !acc1 +. (av *. Array.unsafe_get bt (bbase1 + k))
          done;
          c.a.(cbase + !j) <- !acc0;
          c.a.(cbase + !j + 1) <- !acc1;
          j := !j + 2
        done;
        if !j < jhi then begin
          let bbase = !j * kdim in
          let acc = ref 0.0 in
          for k = 0 to kdim - 1 do
            acc := !acc +. (Array.unsafe_get aa (abase + k) *. Array.unsafe_get bt (bbase + k))
          done;
          c.a.(cbase + !j) <- !acc
        end
      done;
      jt := jhi
    done
end
