(** LSTM + fully-connected regression head (§3.2, Figure 6).

    Consumes sequences of one-hot word indices (the compacted instruction
    vocabulary) and regresses a scalar target (the NIC instruction count of
    a block).  One-hot inputs reduce the input product to a column lookup,
    keeping pure-OCaml training fast.  Trained with full BPTT and Adam,
    with global gradient clipping. *)

type t = {
  vocab : int;
  hidden : int;
  wi : Nn.param; wf : Nn.param; wo : Nn.param; wg : Nn.param;  (** input weights, h x V *)
  ui : Nn.param; uf : Nn.param; uo : Nn.param; ug : Nn.param;  (** recurrent, h x h *)
  bi : Nn.param; bf : Nn.param; bo : Nn.param; bg : Nn.param;  (** biases, h x 1 *)
  fc1 : Nn.param;  (** hidden -> fc_dim, ReLU *)
  fc2 : Nn.param;  (** fc_dim -> out *)
  fc_dim : int;
  out_dim : int;
  mutable y_scale : float;  (** target scaling fitted during training *)
}

(** All trainable parameters (for the optimizer). *)
val params : t -> Nn.param list

(** Fresh Xavier-initialized model; [seed] fixes the initialization. *)
val create : ?hidden:int -> ?fc_dim:int -> ?out_dim:int -> vocab:int -> int -> t

(** Predict the (unscaled) target(s) for a token sequence; zeros for the
    empty sequence. *)
val predict : t -> int array -> float array

(** Preallocated inference working set (recurrence workspace + head
    buffers) for {!predict_into}.  Not thread-safe: one domain at a time
    may use a scratch (the serving layer's one compiled predictor per
    worker, [Clara.Predictor.compile], owns one and runs on the
    worker's loop domain, so it takes no lock). *)
type scratch

(** Fresh scratch sized for [t] (sequence buffers grow on demand). *)
val scratch : t -> scratch

(** [predict_into t sc seq] is bit-identical to [predict t seq] but
    allocation-free after warm-up: results land in (and alias) buffers
    owned by [sc], valid until the next call on the same scratch. *)
val predict_into : t -> scratch -> int array -> float array

(** Full BPTT for one (sequence, scaled target) example: accumulates
    gradients into {!params} and returns the squared error.  Exposed for
    the finite-difference gradient checks. *)
val backward : t -> int array -> float array -> float

(** Fit on (sequence, target) pairs; targets are scaled internally by
    their mean magnitude.  [progress] is invoked after each epoch with
    the mean squared training error.

    [batch = 1] (default) is plain per-example Adam.  [batch > 1]
    accumulates the minibatch's per-example gradients — computed
    concurrently on {!Util.Pool}, merged in example order — before a
    single Adam step; the result is bit-identical for any job count. *)
val fit :
  ?epochs:int ->
  ?lr:float ->
  ?seed:int ->
  ?batch:int ->
  ?progress:(epoch:int -> loss:float -> unit) ->
  t ->
  (int array * float array) array ->
  unit
