(** Prediction-quality telemetry: deterministic sampled shadow
    evaluation, error sketches, drift detection and SLO burn rates.

    The serving layer answers from learned models; this module measures
    whether those answers are still right.  For a {!should_shadow}
    fraction of analyze traffic — selected by hashing the request id and
    flow key, so the choice is identical under any [CLARA_JOBS] — the
    server {!offer}s the model's raw predictions here, and {!drain}
    re-derives the cheap simulator ground truth off the reply path,
    recording signed relative errors into one {!Obs.Sketch} per metric
    and NF (one table under one lock, which a scrape from the HTTP
    exporter's domain shares) and feeding per-NF {!Obs.Drift}
    detectors.  Fast-path hit latencies and request outcomes land in
    the same structure, covering the latency/availability {!Obs.Slo}s.

    Offers happen during the serial planning/assembly phases of a batch
    and [drain] evaluates them in queue order, so the full shadow state
    (selection, errors, drift firings) is bit-identical for the same
    request sequence regardless of the pool size.  Ground truths are
    cached unperturbed per NF; {!Nicsim.Perturb} scales apply at
    evaluation time, so a mid-stream profile shift is visible to the
    very next evaluated sample. *)

type t

val create : ?rate:float -> ?seed:int -> unit -> t
(** [create ()] with [rate] defaulting to [CLARA_SHADOW_RATE] (else
    0.0) and [seed] to [CLARA_SHADOW_SEED] (else a fixed constant).
    Raises [Invalid_argument] unless [0 <= rate <= 1]. *)

val rate : t -> float

val enabled : t -> bool
(** [rate t > 0].  When false every record entry point is a no-op at
    the call site — the disabled server pays one float compare. *)

val should_shadow : t -> id:string -> key:string -> bool
(** Deterministic per-request sampling decision: FNV-1a 64 over
    [id ^ "|" ^ key], seed folded in, one splitmix64 draw against
    [rate]. *)

val offer : t -> nf:string -> pred_compute:float -> pred_memory:float -> unit
(** Enqueue one selected request's predictions for shadow evaluation.
    Cheap (one queue push); the ground-truth work happens in
    {!drain}. *)

val record_fast_latency : t -> nf:string -> float -> unit
(** Record one fast-path hit latency (seconds) into the NF's
    [fast_latency_us] sketch. *)

val record_request_latency : t -> float -> unit
(** Count one request's wall latency against the latency SLO. *)

val record_reply : t -> ok:bool -> unit
(** Count one reply outcome against the availability SLO. *)

val drain : t -> unit
(** Evaluate every pending shadow task: derive ground truth (cached
    per NF, {!Nicsim.Perturb} scales applied at use time), record
    relative errors, feed drift detectors.  Each NF feeds two
    detectors: compute error into ["nf"], memory error into
    ["nf/memory"] — the memory prediction is a direct count that
    tracks the simulator exactly, so a profile shift steps it by a
    known amount even when the learned compute model fits poorly.
    Serialized; call off the reply path. *)

val evaluated : t -> int

val drift_active : t -> string -> bool

val to_json_string : ?now:float -> t -> string
(** Drain, then render the full quality state: header counters, then
    [shadow] (error sketches per metric/NF, sorted),
    [latency] (fast-path latency sketches), [drift] (per-NF detector
    state) and [slo] sections.  [now] drives SLO bucket expiry only
    and is never printed. *)
