(** End-to-end Clara pipeline (Figures 2 and 3).

    [train] builds the learned components once (instruction predictor,
    algorithm classifiers, scale-out cost model); [analyze] then produces
    an insight bundle for any unported NF and workload without touching
    the (simulated) hardware. *)

open Nf_lang

type models = {
  predictor : Predictor.t;
  algo : Algo_id.t;
  scaleout : Scaleout.t option;
  colocation : Colocation.t option;
}

(** Demand pool for colocation-ranker training: synthesized NFs ported
    under a mixed workload (the methodology of §5.7). *)
let colocation_demands ~quick () =
  let spec =
    { Workload.default with
      Workload.proto = Workload.Mixed;
      Workload.n_packets = (if quick then 150 else 300);
      Workload.n_flows = 2048 }
  in
  let programs = Synth.Generator.batch ~seed:4242 (if quick then 12 else 40) in
  Array.of_list
    (List.filter_map
       (fun elt ->
         match Nicsim.Nic.port elt spec with
         | ported -> Some ported.Nicsim.Nic.demand
         | exception _ -> None)
       programs)

(** Train Clara's models.  [quick] shrinks training sets for fast tests;
    scale-out training is the most expensive part and can be skipped.
    [with_colocation] additionally trains the §4.5 colocation ranker so the
    bundle covers every insight (off by default: only persisted bundles and
    colocation queries need it). *)
let train ?(quick = false) ?(with_scaleout = true) ?(with_colocation = false) () =
  Obs.Span.with_ ~cat:"pipeline" "pipeline.train" @@ fun () ->
  let ds = Predictor.synthesize_dataset ~n:(if quick then 30 else 120) () in
  let predictor = Predictor.train ~epochs:(if quick then 4 else 10) ds in
  let algo = Algo_id.train ~corpus:(Algo_corpus.labeled ~negatives:(if quick then 20 else 60) ()) () in
  let scaleout =
    if with_scaleout then
      Some (Scaleout.train ~samples:(Scaleout.training_samples ~n_programs:(if quick then 10 else 40) ()) ())
    else None
  in
  let colocation =
    if with_colocation then
      let demands = colocation_demands ~quick () in
      Some (Colocation.train ~groups:(Colocation.make_groups ~n_groups:(if quick then 10 else 30) Colocation.Total_throughput demands) demands)
    else None
  in
  { predictor; algo; scaleout; colocation }

(* The analyze body, parameterized over the learned-inference entry
   points that have compiled twins: the block predictor and the
   scale-out suggestion (allocation-free), and the accelerator classifier
   (grams packed once).  Both instantiations run the same float
   operations in the same order and open the same spans, so insights — and
   recorded traces — are identical between the direct and compiled paths.
   The element is lowered and encoded once, by [Prepare.prepare]; the
   predictor, accelerator detection and the port all read that result. *)
let analyze_with ~(predict_block : int array -> float) ~(suggest : Nicsim.Perf.demand -> int option)
    ~(algo : Algo_id.compiled) (m : models) (elt : Ast.element) (spec : Workload.spec) : Insights.t =
  Obs.Span.with_ ~cat:"pipeline" "pipeline.analyze" @@ fun () ->
  (* Stages are separated by yield points ({!Util.Coop.yield}): on the
     serving loop a cold analysis runs in slices between hits. *)
  let prep = Prepare.prepare m.predictor.Predictor.vocab elt in
  Util.Coop.yield ();
  (* performance parameters: LSTM for compute, direct count for memory *)
  let per_block = Predictor.predict_prepared predict_block prep in
  let predicted_compute = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 per_block in
  let predicted_memory = float_of_int (Prepare.memory_estimate prep) in
  (* porting-strategy insights *)
  let accel =
    List.map
      (fun (component, algorithm) -> { Insights.component; algorithm })
      (Algo_id.detect_compiled algo elt prep.Prepare.ir)
  in
  Util.Coop.yield ();
  let ported =
    Obs.Span.with_ ~cat:"pipeline" "nic.port" (fun () ->
        Nicsim.Nic.port_ir elt prep.Prepare.ir spec)
  in
  Util.Coop.yield ();
  let suggested_cores = suggest ported.Nicsim.Nic.demand in
  let placement =
    if elt.Ast.state = [] then []
    else Obs.Span.with_ ~cat:"pipeline" "placement.solve" (fun () -> Placement.solve elt ported)
  in
  Util.Coop.yield ();
  let packs =
    Obs.Span.with_ ~cat:"pipeline" "coalesce.suggest" (fun () ->
        Coalesce.suggest elt ported.Nicsim.Nic.profile)
  in
  {
    Insights.nf_name = elt.Ast.name;
    workload = spec.Workload.name;
    predicted_compute;
    predicted_memory;
    api_calls = prep.Prepare.api_set;
    accel;
    suggested_cores;
    placement;
    packs;
  }

(** Analyze an unported NF under a workload specification and produce the
    full insight bundle. *)
let analyze (m : models) (elt : Ast.element) (spec : Workload.spec) : Insights.t =
  analyze_with
    ~predict_block:(Predictor.predict_block m.predictor)
    ~suggest:(fun d -> Option.map (fun s -> Scaleout.suggest s d) m.scaleout)
    ~algo:(Algo_id.compile m.algo) m elt spec

(** Analyze and render the textual report. *)
let report m elt spec = Insights.render (analyze m elt spec)

(* -- compiled serving bundle --

   The models plus their inference twins: the LSTM predictor with
   preallocated scratch and a per-block prediction memo, the scale-out
   GBDT flattened to node arrays, the accelerator classifier with its
   selected grams packed.  [analyze_compiled]
   produces insights bit-identical to [analyze] with the same span tree.
   Not thread-safe (the predictor scratch and memo are shared): a
   serving worker keeps one and runs its analyses one at a time. *)

type compiled = {
  c_models : models;
  c_predictor : Predictor.compiled;
  c_scaleout : Scaleout.compiled option;
  c_algo : Algo_id.compiled;
}

let compile (m : models) =
  {
    c_models = m;
    c_predictor = Predictor.compile m.predictor;
    c_scaleout = Option.map Scaleout.compile m.scaleout;
    c_algo = Algo_id.compile m.algo;
  }

let analyze_compiled (c : compiled) (elt : Ast.element) (spec : Workload.spec) : Insights.t =
  analyze_with
    ~predict_block:(Predictor.predict_block_compiled c.c_predictor)
    ~suggest:(fun d -> Option.map (fun s -> Scaleout.suggest_compiled s d) c.c_scaleout)
    ~algo:c.c_algo c.c_models elt spec

let report_compiled c elt spec = Insights.render (analyze_compiled c elt spec)
