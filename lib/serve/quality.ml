(** Prediction-quality telemetry: shadow evaluation state (see quality.mli). *)

type task = { t_nf : string; t_pred_compute : float; t_pred_memory : float }

type t = {
  q_rate : float;
  q_seed : int;
  (* One sketch per (metric, nf).  The lock keeps the table whole while
     the HTTP exporter's domain scrapes and drains beside the loop. *)
  sketches : (string * string, Obs.Sketch.t) Hashtbl.t;
  sketch_lock : Mutex.t;
  (* Shadow tasks queue here during planning/assembly (both serial, so
     the queue order is the request order) and are evaluated by [drain]
     off the reply path. *)
  pending : task Queue.t;
  pending_lock : Mutex.t;
  drain_lock : Mutex.t;
  (* Unperturbed ground truth per NF; Perturb scales apply at use time,
     so flipping a perturbation mid-stream takes effect immediately. *)
  truths : (string, (float * float) option) Hashtbl.t;
  truth_lock : Mutex.t;
  drifts : (string, Obs.Drift.t) Hashtbl.t;
  drift_lock : Mutex.t;
  slo_latency : Obs.Slo.t;
  slo_avail : Obs.Slo.t;
  sampled : int Atomic.t;
  evaluated : int Atomic.t;
  eval_errors : int Atomic.t;
}

let default_rate () =
  match Option.bind (Sys.getenv_opt "CLARA_SHADOW_RATE") float_of_string_opt with
  | Some r when r >= 0.0 && r <= 1.0 -> r
  | Some _ | None -> 0.0

let default_seed () =
  match Option.bind (Sys.getenv_opt "CLARA_SHADOW_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 0x5eed

let create ?rate ?seed () =
  let rate = match rate with Some r -> r | None -> default_rate () in
  if not (Float.is_finite rate && rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Quality.create: rate must be in [0, 1]";
  { q_rate = rate;
    q_seed = (match seed with Some s -> s | None -> default_seed ());
    sketches = Hashtbl.create 8;
    sketch_lock = Mutex.create ();
    pending = Queue.create ();
    pending_lock = Mutex.create ();
    drain_lock = Mutex.create ();
    truths = Hashtbl.create 8;
    truth_lock = Mutex.create ();
    drifts = Hashtbl.create 8;
    drift_lock = Mutex.create ();
    slo_latency =
      Obs.Slo.create ~name:"clara_serve_latency" ~objective:0.99 (Obs.Slo.Latency 0.1);
    slo_avail = Obs.Slo.create ~name:"clara_serve_availability" ~objective:0.999 Obs.Slo.Availability;
    sampled = Atomic.make 0;
    evaluated = Atomic.make 0;
    eval_errors = Atomic.make 0 }

let rate t = t.q_rate
let enabled t = t.q_rate > 0.0

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* -- deterministic sampling --

   Selection hashes the request's id token and flow key through FNV-1a 64,
   folds in the seed, and feeds one splitmix64 draw.
   The decision depends only on request content, never on arrival order or
   which domain plans the line, so CLARA_JOBS=1 and =4 shadow the same
   requests. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let should_shadow t ~id ~key =
  if t.q_rate <= 0.0 then false
  else if t.q_rate >= 1.0 then true
  else
    let h = Int64.to_int (fnv1a64 (id ^ "|" ^ key)) lxor t.q_seed in
    Util.Rng.float (Util.Rng.create h) < t.q_rate

(* -- recording -- *)

let sketch_for t key =
  with_lock t.sketch_lock @@ fun () ->
  match Hashtbl.find_opt t.sketches key with
  | Some s -> s
  | None ->
      let s = Obs.Sketch.create () in
      Hashtbl.add t.sketches key s;
      s

let offer t ~nf ~pred_compute ~pred_memory =
  Atomic.incr t.sampled;
  with_lock t.pending_lock @@ fun () ->
  Queue.add { t_nf = nf; t_pred_compute = pred_compute; t_pred_memory = pred_memory } t.pending

let record_fast_latency t ~nf dt_s =
  Obs.Sketch.add (sketch_for t ("fast_latency_us", nf)) (dt_s *. 1e6)

let record_request_latency t dt_s = Obs.Slo.record_latency t.slo_latency dt_s
let record_reply t ~ok = Obs.Slo.record t.slo_avail ~good:ok

(* -- shadow evaluation -- *)

let truth_for t nf =
  with_lock t.truth_lock @@ fun () ->
  match Hashtbl.find_opt t.truths nf with
  | Some v -> v
  | None ->
      let v =
        match Nf_lang.Corpus.find nf with
        | elt ->
            let blocks = Clara.Predictor.ground_truth elt in
            let c = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 blocks in
            let m = List.fold_left (fun acc (_, _, m) -> acc +. m) 0.0 blocks in
            Some (c, m)
        | exception Failure _ -> None
      in
      Hashtbl.add t.truths nf v;
      v

let drift_for t nf =
  with_lock t.drift_lock @@ fun () ->
  match Hashtbl.find_opt t.drifts nf with
  | Some d -> d
  | None ->
      let d = Obs.Drift.create ~name:nf () in
      Hashtbl.add t.drifts nf d;
      d

let rel_err pred truth = (pred -. truth) /. Float.max (Float.abs truth) 1e-9

let eval_task t task =
  match truth_for t task.t_nf with
  | None -> Atomic.incr t.eval_errors
  | Some (tc, tm) ->
      let tc = tc *. Nicsim.Perturb.compute_scale () in
      let tm = tm *. Nicsim.Perturb.memory_scale () in
      let ec = rel_err task.t_pred_compute tc in
      let em = rel_err task.t_pred_memory tm in
      Obs.Sketch.add (sketch_for t ("compute_rel_err", task.t_nf)) ec;
      Obs.Sketch.add (sketch_for t ("memory_rel_err", task.t_nf)) em;
      (* Separate detectors per error stream: the memory prediction is
         a direct count, so its error is a near-exact constant and any
         profile shift shows up as a clean step regardless of how well
         the learned compute model happens to fit. *)
      Obs.Drift.observe (drift_for t task.t_nf) ec;
      Obs.Drift.observe (drift_for t (task.t_nf ^ "/memory")) em;
      Atomic.incr t.evaluated

let drain t =
  with_lock t.drain_lock @@ fun () ->
  let rec loop () =
    let task = with_lock t.pending_lock (fun () -> Queue.take_opt t.pending) in
    match task with
    | None -> ()
    | Some task ->
        eval_task t task;
        loop ()
  in
  loop ()

let sampled t = Atomic.get t.sampled
let evaluated t = Atomic.get t.evaluated
let eval_errors t = Atomic.get t.eval_errors

let drift_active t nf =
  with_lock t.drift_lock (fun () -> Hashtbl.find_opt t.drifts nf)
  |> Option.fold ~none:false ~some:Obs.Drift.active

(* -- scrape -- *)

let latency_metric = "fast_latency_us"

(* Every (metric, nf) series, sorted by key. *)
let sorted_sketches t =
  with_lock t.sketch_lock (fun () -> Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.sketches [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fmt_float f = if Float.is_finite f then Printf.sprintf "%.12g" f else "null"

let to_json_string ?now t =
  drain t;
  let sketches = sorted_sketches t in
  let section pred =
    sketches
    |> List.filter (fun ((metric, _), _) -> pred metric)
    |> List.map (fun ((metric, nf), s) ->
           Printf.sprintf "{\"metric\":%S,\"nf\":%S,\"sketch\":%s}" metric nf
             (Obs.Sketch.to_json_string s))
    |> String.concat ","
  in
  let drift_json =
    with_lock t.drift_lock (fun () ->
        Hashtbl.fold (fun _ d acc -> d :: acc) t.drifts [])
    |> List.sort (fun a b -> compare (Obs.Drift.name a) (Obs.Drift.name b))
    |> List.map Obs.Drift.to_json_string
    |> String.concat ","
  in
  let slo_json =
    String.concat ","
      [ Obs.Slo.to_json_string ?now t.slo_latency; Obs.Slo.to_json_string ?now t.slo_avail ]
  in
  Printf.sprintf
    "{\"enabled\":%b,\"rate\":%s,\"sampled\":%d,\"evaluated\":%d,\"eval_errors\":%d,\"shadow\":[%s],\"latency\":[%s],\"drift\":[%s],\"slo\":[%s]}"
    (enabled t) (fmt_float t.q_rate) (sampled t) (evaluated t) (eval_errors t)
    (section (fun m -> m <> latency_metric))
    (section (fun m -> m = latency_metric))
    drift_json slo_json
