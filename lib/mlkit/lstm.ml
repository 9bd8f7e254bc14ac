(** LSTM + fully-connected regression head (§3.2, Figure 6).

    The model consumes a sequence of one-hot instruction-word indices (the
    compacted vocabulary) and regresses the number of SmartNIC instructions
    the block compiles to.  Input one-hot encoding means the input weight
    product reduces to a column lookup, so training is fast even in pure
    OCaml.  Trained with truncated-free full BPTT and Adam.

    Weights are flat row-major buffers ({!La.Flat}) and the recurrence
    runs over per-domain preallocated scratch: the forward pass writes
    gate activations into T x hidden sequence buffers instead of
    allocating seven arrays per step, and backprop reuses a fixed set of
    hidden-sized scratch vectors.  Every accumulation keeps the exact
    order of the original per-step code (column lookup, then the
    recurrent dot product, then the bias; backprop temp-then-axpy
    structure preserved), so training is bit-identical to the retained
    {!Naive} reference — the equivalence suite checks this. *)

type t = {
  vocab : int;
  hidden : int;
  (* gate weights: [w_*] input (h x V), [u_*] recurrent (h x h), [b_*] bias (h x 1) *)
  wi : Nn.param; wf : Nn.param; wo : Nn.param; wg : Nn.param;
  ui : Nn.param; uf : Nn.param; uo : Nn.param; ug : Nn.param;
  bi : Nn.param; bf : Nn.param; bo : Nn.param; bg : Nn.param;
  (* FC head: hidden -> fc_dim (ReLU) -> out *)
  fc1 : Nn.param;
  fc2 : Nn.param;
  fc_dim : int;
  out_dim : int;
  mutable y_scale : float;  (** targets are divided by this during training *)
}

let params t =
  [ t.wi; t.wf; t.wo; t.wg; t.ui; t.uf; t.uo; t.ug; t.bi; t.bf; t.bo; t.bg; t.fc1; t.fc2 ]

let create ?(hidden = 32) ?(fc_dim = 16) ?(out_dim = 1) ~vocab seed =
  let rng = Util.Rng.create seed in
  let p r c = Nn.param rng r c in
  {
    vocab; hidden;
    wi = p hidden vocab; wf = p hidden vocab; wo = p hidden vocab; wg = p hidden vocab;
    ui = p hidden hidden; uf = p hidden hidden; uo = p hidden hidden; ug = p hidden hidden;
    bi = Nn.zero_param hidden 1; bf = Nn.zero_param hidden 1; bo = Nn.zero_param hidden 1;
    bg = Nn.zero_param hidden 1;
    fc1 = p fc_dim (hidden + 1);
    fc2 = p out_dim (fc_dim + 1);
    fc_dim; out_dim;
    y_scale = 1.0;
  }

(* -- per-domain scratch --

   One workspace per (domain, hidden size): sequence-length buffers for
   the forward caches (grown on demand, never shrunk) and fixed
   hidden-sized vectors for backprop.  A domain runs one backward at a
   time — nested pool regions are serial — so reuse is race-free. *)

type ws = {
  mutable cap : int;  (* steps the sequence buffers can hold *)
  mutable i_g : float array; mutable f_g : float array;
  mutable o_g : float array; mutable g_g : float array;
  mutable cs : float array; mutable tanh_cs : float array; mutable hs : float array;
  zero : float array;  (* h zeros: the t=0 previous state; never written *)
  hfin : float array;
  dh : float array; dc : float array;
  d_o : float array; dct : float array;
  di : float array; df : float array; dg : float array;
  dtmp : float array; dh_prev : float array;
}

let ws_key : (int, ws) Hashtbl.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let fresh_ws hidden =
  let v () = Array.make hidden 0.0 in
  {
    cap = 0; i_g = [||]; f_g = [||]; o_g = [||]; g_g = [||];
    cs = [||]; tanh_cs = [||]; hs = [||];
    zero = v (); hfin = v ();
    dh = v (); dc = v (); d_o = v (); dct = v ();
    di = v (); df = v (); dg = v (); dtmp = v (); dh_prev = v ();
  }

let ensure_ws ws hidden steps =
  if ws.cap < steps then begin
    let cap = max steps (max 64 (2 * ws.cap)) in
    let buf () = Array.make (cap * hidden) 0.0 in
    ws.cap <- cap;
    ws.i_g <- buf (); ws.f_g <- buf (); ws.o_g <- buf (); ws.g_g <- buf ();
    ws.cs <- buf (); ws.tanh_cs <- buf (); ws.hs <- buf ()
  end

let get_ws hidden steps =
  let tbl = Domain.DLS.get ws_key in
  let ws =
    match Hashtbl.find_opt tbl hidden with
    | Some ws -> ws
    | None ->
      let ws = fresh_ws hidden in
      Hashtbl.add tbl hidden ws;
      ws
  in
  ensure_ws ws hidden steps;
  ws

(* z[k] = squash ((w column tok) + (u . h_prev) + b[k]); the three
   additions happen in exactly that order, like the original add_column /
   mat_vec_add / bias code.  All four gates are computed in one pass so
   each h_prev element is loaded once per j instead of once per gate; the
   gates only read h_prev, so interleaving them preserves every per-gate
   accumulation order.  The sigmoid/tanh squashes are inlined (same
   formulas as {!La.sigmoid} / [tanh]) to avoid a closure call per cell. *)
let gates_into t ws base hprev hoff tok =
  let h = t.hidden in
  let wcols = t.wi.Nn.w.La.Flat.cols in
  let wia = t.wi.Nn.w.La.Flat.a and wfa = t.wf.Nn.w.La.Flat.a in
  let woa = t.wo.Nn.w.La.Flat.a and wga = t.wg.Nn.w.La.Flat.a in
  let uia = t.ui.Nn.w.La.Flat.a and ufa = t.uf.Nn.w.La.Flat.a in
  let uoa = t.uo.Nn.w.La.Flat.a and uga = t.ug.Nn.w.La.Flat.a in
  let bia = t.bi.Nn.w.La.Flat.a and bfa = t.bf.Nn.w.La.Flat.a in
  let boa = t.bo.Nn.w.La.Flat.a and bga = t.bg.Nn.w.La.Flat.a in
  (* one guard hoists every bound of the h x h inner loops, which then run
     unchecked — this loop pair is the forward pass's entire cost *)
  if
    tok < 0 || tok >= wcols || hoff + h > Array.length hprev
    || base + h > Array.length ws.i_g || base + h > Array.length ws.f_g
    || base + h > Array.length ws.o_g || base + h > Array.length ws.g_g
    || h > Array.length bia || h > Array.length bfa || h > Array.length boa
    || h > Array.length bga || (h * h) > Array.length uia || (h * h) > Array.length ufa
    || (h * h) > Array.length uoa || (h * h) > Array.length uga
    || ((h - 1) * wcols) + tok >= Array.length wia
    || ((h - 1) * wcols) + tok >= Array.length wfa
    || ((h - 1) * wcols) + tok >= Array.length woa
    || ((h - 1) * wcols) + tok >= Array.length wga
  then invalid_arg "Lstm.gates_into: out of bounds";
  for k = 0 to h - 1 do
    let wo = (k * wcols) + tok in
    let zi = 0.0 +. Array.unsafe_get wia wo and zf = 0.0 +. Array.unsafe_get wfa wo in
    let zo = 0.0 +. Array.unsafe_get woa wo and zg = 0.0 +. Array.unsafe_get wga wo in
    let ubase = k * h in
    let ai = ref 0.0 and af = ref 0.0 and ao = ref 0.0 and ag = ref 0.0 in
    for j = 0 to h - 1 do
      let hv = Array.unsafe_get hprev (hoff + j) in
      ai := !ai +. (Array.unsafe_get uia (ubase + j) *. hv);
      af := !af +. (Array.unsafe_get ufa (ubase + j) *. hv);
      ao := !ao +. (Array.unsafe_get uoa (ubase + j) *. hv);
      ag := !ag +. (Array.unsafe_get uga (ubase + j) *. hv)
    done;
    let b = base + k in
    Array.unsafe_set ws.i_g b (1.0 /. (1.0 +. exp (-.(zi +. !ai +. Array.unsafe_get bia k))));
    Array.unsafe_set ws.f_g b (1.0 /. (1.0 +. exp (-.(zf +. !af +. Array.unsafe_get bfa k))));
    Array.unsafe_set ws.o_g b (1.0 /. (1.0 +. exp (-.(zo +. !ao +. Array.unsafe_get boa k))));
    Array.unsafe_set ws.g_g b (tanh (zg +. !ag +. Array.unsafe_get bga k))
  done

(** Run the recurrence into the workspace buffers; returns the workspace
    (step [s] lives at offset [s * hidden]) with [hfin] holding the final
    hidden state. *)
let forward_ws t ws (seq : int array) =
  let h = t.hidden in
  let steps = Array.length seq in
  if steps * h > Array.length ws.hs then invalid_arg "Lstm.forward: workspace too small";
  for s = 0 to steps - 1 do
    let tok = seq.(s) in
    let base = s * h in
    let hprev, hoff = if s = 0 then (ws.zero, 0) else (ws.hs, (s - 1) * h) in
    let cprev, coff = if s = 0 then (ws.zero, 0) else (ws.cs, (s - 1) * h) in
    gates_into t ws base hprev hoff tok;
    for k = 0 to h - 1 do
      let b = base + k in
      let c =
        (Array.unsafe_get ws.f_g b *. Array.unsafe_get cprev (coff + k))
        +. (Array.unsafe_get ws.i_g b *. Array.unsafe_get ws.g_g b)
      in
      Array.unsafe_set ws.cs b c;
      let tc = tanh c in
      Array.unsafe_set ws.tanh_cs b tc;
      Array.unsafe_set ws.hs b (Array.unsafe_get ws.o_g b *. tc)
    done
  done;
  if steps = 0 then Array.fill ws.hfin 0 h 0.0
  else Array.blit ws.hs ((steps - 1) * h) ws.hfin 0 h;
  ws

let forward t (seq : int array) =
  let ws = get_ws t.hidden (Array.length seq) in
  forward_ws t ws seq

let head_forward t h_final =
  let z1 = Nn.affine t.fc1 h_final in
  let a1 = Array.map La.relu z1 in
  let out = Nn.affine t.fc2 a1 in
  (z1, a1, out)

(** Predict the (unscaled) regression target(s) for a token sequence. *)
let predict t seq =
  if Array.length seq = 0 then Array.make t.out_dim 0.0
  else
    let ws = forward t seq in
    let _, _, out = head_forward t ws.hfin in
    Array.map (fun o -> o *. t.y_scale) out

(* -- explicit scratch: the serving fast path's allocation-free predict --

   [predict] leans on per-domain DLS scratch but still allocates in the
   head ([Nn.affine] x 2, two [Array.map]s).  A [scratch] owns the whole
   working set — recurrence workspace plus head buffers — so its one
   owner (the worker's compiled predictor, used only on the serving
   loop's domain) can evaluate without allocating or touching DLS.  [affine_into] repeats
   {!Nn.affine}'s accumulation order exactly (bias first, then ascending
   [j]), so [predict_into] is bit-identical to [predict]. *)

type scratch = {
  s_ws : ws;
  s_z1 : float array;
  s_a1 : float array;
  s_out : float array;
  s_y : float array;
}

let scratch t =
  {
    s_ws = fresh_ws t.hidden;
    s_z1 = Array.make t.fc_dim 0.0;
    s_a1 = Array.make t.fc_dim 0.0;
    s_out = Array.make t.out_dim 0.0;
    s_y = Array.make t.out_dim 0.0;
  }

let affine_into (p : Nn.param) x (dst : float array) =
  let w = p.Nn.w.La.Flat.a and cols = p.Nn.w.La.Flat.cols in
  let n = Array.length x in
  if Array.length dst < p.Nn.w.La.Flat.rows then invalid_arg "Lstm.affine_into: dst too small";
  for i = 0 to p.Nn.w.La.Flat.rows - 1 do
    let base = i * cols in
    let acc = ref w.(base + n) in
    for j = 0 to n - 1 do
      acc := !acc +. (w.(base + j) *. x.(j))
    done;
    dst.(i) <- !acc
  done

let predict_into t sc seq =
  if Array.length seq = 0 then begin
    Array.fill sc.s_y 0 t.out_dim 0.0;
    sc.s_y
  end
  else begin
    ensure_ws sc.s_ws t.hidden (Array.length seq);
    ignore (forward_ws t sc.s_ws seq);
    affine_into t.fc1 sc.s_ws.hfin sc.s_z1;
    for j = 0 to t.fc_dim - 1 do
      sc.s_a1.(j) <- La.relu sc.s_z1.(j)
    done;
    affine_into t.fc2 sc.s_a1 sc.s_out;
    for j = 0 to t.out_dim - 1 do
      sc.s_y.(j) <- sc.s_out.(j) *. t.y_scale
    done;
    sc.s_y
  end

let acc_affine (p : Nn.param) x dz =
  let n = Array.length x in
  let g = p.Nn.g.La.Flat.a and cols = p.Nn.g.La.Flat.cols in
  Array.iteri
    (fun r d ->
      let base = r * cols in
      for j = 0 to n - 1 do
        g.(base + j) <- g.(base + j) +. (d *. x.(j))
      done;
      g.(base + n) <- g.(base + n) +. d)
    dz

(* accumulate W^T dz into [dst] (caller zero-fills, matching the fresh
   La.vec of the original) *)
let back_affine_into dst (p : Nn.param) dz xlen =
  let w = p.Nn.w.La.Flat.a and cols = p.Nn.w.La.Flat.cols in
  Array.iteri
    (fun r d ->
      let base = r * cols in
      for j = 0 to xlen - 1 do
        dst.(j) <- dst.(j) +. (w.(base + j) *. d)
      done)
    dz

(** Full BPTT for one (sequence, target) example; accumulates gradients and
    returns the squared error (in scaled space). *)
let backward t seq target_scaled =
  let h = t.hidden in
  let ws = forward t seq in
  let steps = Array.length seq in
  let z1, a1, out = head_forward t ws.hfin in
  let dout = Array.mapi (fun j o -> 2.0 *. (o -. target_scaled.(j))) out in
  let err = Array.fold_left (fun acc d -> acc +. (d *. d /. 4.0)) 0.0 dout in
  (* head gradients *)
  acc_affine t.fc2 a1 dout;
  let da1 = La.vec t.fc_dim in
  back_affine_into da1 t.fc2 dout t.fc_dim;
  let dz1 = Array.mapi (fun j v -> if z1.(j) > 0.0 then v else 0.0) da1 in
  acc_affine t.fc1 ws.hfin dz1;
  Array.fill ws.dh 0 h 0.0;
  back_affine_into ws.dh t.fc1 dz1 h;
  Array.fill ws.dc 0 h 0.0;
  (* walk the cached steps from the last backwards *)
  for s = steps - 1 downto 0 do
    let base = s * h in
    let tok = seq.(s) in
    let hprev, hoff = if s = 0 then (ws.zero, 0) else (ws.hs, (s - 1) * h) in
    let cprev, coff = if s = 0 then (ws.zero, 0) else (ws.cs, (s - 1) * h) in
    for k = 0 to h - 1 do
      let b = base + k in
      let dhk = Array.unsafe_get ws.dh k in
      let og = Array.unsafe_get ws.o_g b and ig = Array.unsafe_get ws.i_g b in
      let gg = Array.unsafe_get ws.g_g b and tc = Array.unsafe_get ws.tanh_cs b in
      Array.unsafe_set ws.d_o k (dhk *. tc *. La.dsigmoid og);
      let dct = Array.unsafe_get ws.dc k +. (dhk *. og *. La.dtanh tc) in
      Array.unsafe_set ws.dct k dct;
      Array.unsafe_set ws.di k (dct *. gg *. La.dsigmoid ig);
      Array.unsafe_set ws.df k
        (dct *. Array.unsafe_get cprev (coff + k) *. La.dsigmoid (Array.unsafe_get ws.f_g b));
      Array.unsafe_set ws.dg k (dct *. ig *. La.dtanh gg)
    done;
    (* parameter grads: input columns and biases per gate, then the four
       recurrent matrices fused in one pass sharing each h_prev load.  The
       four gates write disjoint buffers, so regrouping the writes leaves
       every individual accumulation order — and hence every value —
       unchanged. *)
    let acc_gate_wb (w : Nn.param) (b : Nn.param) (dz : float array) =
      let wg = w.Nn.g.La.Flat.a and wcols = w.Nn.g.La.Flat.cols in
      let bg = b.Nn.g.La.Flat.a in
      if tok < 0 || ((h - 1) * wcols) + tok >= Array.length wg || h > Array.length bg then
        invalid_arg "Lstm.acc_gate_wb: out of bounds";
      for k = 0 to h - 1 do
        let o = (k * wcols) + tok in
        let dzk = Array.unsafe_get dz k in
        Array.unsafe_set wg o (Array.unsafe_get wg o +. dzk);
        Array.unsafe_set bg k (Array.unsafe_get bg k +. dzk)
      done
    in
    acc_gate_wb t.wi t.bi ws.di;
    acc_gate_wb t.wf t.bf ws.df;
    acc_gate_wb t.wo t.bo ws.d_o;
    acc_gate_wb t.wg t.bg ws.dg;
    let uig = t.ui.Nn.g.La.Flat.a and ufg = t.uf.Nn.g.La.Flat.a in
    let uog = t.uo.Nn.g.La.Flat.a and ugg = t.ug.Nn.g.La.Flat.a in
    if
      (h * h) > Array.length uig || (h * h) > Array.length ufg || (h * h) > Array.length uog
      || (h * h) > Array.length ugg || hoff + h > Array.length hprev
    then invalid_arg "Lstm.backward: out of bounds";
    for k = 0 to h - 1 do
      let ubase = k * h in
      let zi = Array.unsafe_get ws.di k and zf = Array.unsafe_get ws.df k in
      let zo = Array.unsafe_get ws.d_o k and zg = Array.unsafe_get ws.dg k in
      for j = 0 to h - 1 do
        let o = ubase + j in
        let hv = Array.unsafe_get hprev (hoff + j) in
        Array.unsafe_set uig o (Array.unsafe_get uig o +. (zi *. hv));
        Array.unsafe_set ufg o (Array.unsafe_get ufg o +. (zf *. hv));
        Array.unsafe_set uog o (Array.unsafe_get uog o +. (zo *. hv));
        Array.unsafe_set ugg o (Array.unsafe_get ugg o +. (zg *. hv))
      done
    done;
    (* propagate to previous h and c through the recurrent matrices; each
       gate goes through a zeroed temp then an axpy, like the original
       mat_t_vec / axpy pair, to keep the additions bit-identical *)
    Array.fill ws.dh_prev 0 h 0.0;
    let through (u : Nn.param) (dz : float array) =
      Array.fill ws.dtmp 0 h 0.0;
      let ua = u.Nn.w.La.Flat.a in
      let dtmp = ws.dtmp in
      if (h * h) > Array.length ua || h > Array.length dtmp then
        invalid_arg "Lstm.through: out of bounds";
      for r = 0 to h - 1 do
        let ubase = r * h in
        let ar = dz.(r) in
        for j = 0 to h - 1 do
          Array.unsafe_set dtmp j (Array.unsafe_get dtmp j +. (Array.unsafe_get ua (ubase + j) *. ar))
        done
      done;
      let dhp = ws.dh_prev in
      for j = 0 to h - 1 do
        Array.unsafe_set dhp j (Array.unsafe_get dhp j +. (1.0 *. Array.unsafe_get dtmp j))
      done
    in
    through t.ui ws.di;
    through t.uf ws.df;
    through t.uo ws.d_o;
    through t.ug ws.dg;
    Array.blit ws.dh_prev 0 ws.dh 0 h;
    for k = 0 to h - 1 do
      Array.unsafe_set ws.dc k (Array.unsafe_get ws.dct k *. Array.unsafe_get ws.f_g (base + k))
    done
  done;
  err

(* A shadow shares the weights and Adam moments but owns a private zeroed
   gradient buffer, so concurrent [backward] calls never race. *)
let shadow_param (p : Nn.param) = { p with Nn.g = La.Flat.create (Nn.rows p) (Nn.cols p) }

let shadow_model t =
  {
    t with
    wi = shadow_param t.wi; wf = shadow_param t.wf;
    wo = shadow_param t.wo; wg = shadow_param t.wg;
    ui = shadow_param t.ui; uf = shadow_param t.uf;
    uo = shadow_param t.uo; ug = shadow_param t.ug;
    bi = shadow_param t.bi; bf = shadow_param t.bf;
    bo = shadow_param t.bo; bg = shadow_param t.bg;
    fc1 = shadow_param t.fc1; fc2 = shadow_param t.fc2;
  }

let add_grads ~into sh =
  List.iter2
    (fun (p : Nn.param) (sp : Nn.param) ->
      let dst = p.Nn.g.La.Flat.a and src = sp.Nn.g.La.Flat.a in
      if Array.length src <> Array.length dst then invalid_arg "Lstm.add_grads: shape mismatch";
      for k = 0 to Array.length dst - 1 do
        Array.unsafe_set dst k (Array.unsafe_get dst k +. Array.unsafe_get src k)
      done)
    (params into) (params sh)

(** Fit on (sequence, target) pairs.  Targets are scaled internally by
    their mean magnitude for conditioning.

    [batch = 1] (the default) is plain per-example Adam.  [batch > 1]
    accumulates per-example gradients over each minibatch — computed
    concurrently on the domain pool, each example writing into a private
    shadow gradient — and merges them in example order before the single
    Adam step, so the trained weights are bit-identical for any
    [CLARA_JOBS] value. *)
let fit ?(epochs = 12) ?(lr = 0.008) ?(seed = 11) ?(batch = 1)
    ?(progress = fun ~epoch:_ ~loss:_ -> ()) t data =
  let n = Array.length data in
  if n = 0 then ()
  else begin
    let mean_target =
      Array.fold_left (fun acc (_, y) -> acc +. abs_float y.(0)) 0.0 data /. float_of_int n
    in
    t.y_scale <- max 1.0 mean_target;
    let series = Obs.Series.create ~capacity:(max 16 epochs) "lstm.fit" in
    let opt = Nn.adam ~lr () in
    let rng = Util.Rng.create seed in
    let idx = Array.init n (fun i -> i) in
    let example_step k =
      let seq, y = data.(k) in
      if Array.length seq = 0 then 0.0
      else begin
        List.iter Nn.zero_grad (params t);
        let y_scaled = Array.map (fun v -> v /. t.y_scale) y in
        let err = backward t seq y_scaled in
        Nn.clip_gradients (params t) 5.0;
        Nn.adam_step opt (params t);
        err
      end
    in
    let minibatch_step b0 bsz =
      let contributions =
        Util.Pool.parallel_init ~chunk:1 ~cost:300.0 bsz (fun j ->
            let seq, y = data.(idx.(b0 + j)) in
            if Array.length seq = 0 then None
            else begin
              let sh = shadow_model t in
              let y_scaled = Array.map (fun v -> v /. t.y_scale) y in
              let err = backward sh seq y_scaled in
              Some (sh, err)
            end)
      in
      List.iter Nn.zero_grad (params t);
      let err = ref 0.0 and contributed = ref false in
      Array.iter
        (function
          | None -> ()
          | Some (sh, e) ->
            contributed := true;
            err := !err +. e;
            add_grads ~into:t sh)
        contributions;
      if !contributed then begin
        Nn.clip_gradients (params t) 5.0;
        Nn.adam_step opt (params t)
      end;
      !err
    in
    for epoch = 1 to epochs do
      Obs.Span.with_ ~cat:"mlkit" "lstm.epoch" (fun () ->
          Util.Rng.shuffle rng idx;
          let total = ref 0.0 in
          if batch <= 1 then Array.iter (fun k -> total := !total +. example_step k) idx
          else begin
            let b0 = ref 0 in
            while !b0 < n do
              let bsz = min batch (n - !b0) in
              total := !total +. minibatch_step !b0 bsz;
              b0 := !b0 + bsz
            done
          end;
          let loss = !total /. float_of_int n in
          Obs.Series.record series ~step:epoch loss;
          progress ~epoch ~loss)
    done
  end
