(* Per-layer figures, measured from outside: each is the time of a call
   into one layer's public functions, replayed on the run's own seeded
   inputs.  Only traced runs do this; every call is wrapped in a
   benchmark span. *)

open Pb_stat

let span = Pb_span.with_

(* Time [f] into [s] under a span named [name]. *)
let timed ?parent s name f =
  span ?parent name (fun _ ->
      let r, us = time_us f in
      add s us;
      r)

(* -- training, persistence and worker start-up -- *)

(* The calls [Clara.Pipeline.train ~quick:true ~with_colocation:true]
   makes, one by one; the colocation ranker builds its demands privately,
   so it lands in [train.other_s] = full train minus these parts.  The
   sizes below are [train]'s quick ones: the rebuilt models are returned
   by part name with their encodings, so the caller can check them
   against the [models] the full train built. *)
let train_breakdown ~(models : Clara.Pipeline.models) ~full_s =
  let part name f =
    span name (fun _ ->
        let r, us = time_us f in
        (r, us /. 1e6))
  in
  let ds, dataset = part "train.dataset" (fun () -> Clara.Predictor.synthesize_dataset ~n:30 ()) in
  let predictor, fit = part "train.predictor_fit" (fun () -> Clara.Predictor.train ~epochs:4 ds) in
  let algo, algo_s =
    part "train.algo_fit" (fun () -> Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:20 ()) ())
  in
  let scaleout, scaleout_s =
    part "train.scaleout" (fun () ->
        Clara.Scaleout.train ~samples:(Clara.Scaleout.training_samples ~n_programs:10 ()) ())
  in
  let mismatched =
    List.filter_map
      (fun (name, rebuilt, trained) -> if rebuilt = trained then None else Some name)
      Persist.Codec.
        [ ("predictor", encode_predictor predictor, encode_predictor models.Clara.Pipeline.predictor);
          ("algo", encode_algo algo, encode_algo models.Clara.Pipeline.algo);
          ("scaleout", encode_scaleout scaleout,
           Option.fold ~none:"" ~some:encode_scaleout models.Clara.Pipeline.scaleout) ]
  in
  ( [ ("train.dataset_s", dataset, "s"); ("train.predictor_fit_s", fit, "s");
      ("train.algo_fit_s", algo_s, "s"); ("train.scaleout_s", scaleout_s, "s");
      ("train.other_s", full_s -. dataset -. fit -. algo_s -. scaleout_s, "s") ],
    mismatched )

let persist ~work ~manifest models =
  let save = samples () and load = samples () in
  for k = 1 to 3 do
    let dir = Filename.concat work (Printf.sprintf "save-%d" k) in
    timed save "persist.save" (fun () -> Persist.Bundle.save ~dir manifest models);
    match timed load "persist.load" (fun () -> Persist.Bundle.load ~dir) with
    | Ok _ -> ()
    | Error e -> failwith ("bundle reload: " ^ Persist.Wire.error_to_string e)
  done;
  [ ("persist.save_s", p50 save /. 1e6, "s"); ("persist.load_s", p50 load /. 1e6, "s") ]

let worker_ready ~work ~bundle =
  let s = samples () in
  for k = 1 to 3 do
    let socket = Filename.concat work (Printf.sprintf "probe%d.sock" k) in
    let sp =
      timed s "setup.worker_ready" (fun () ->
          let sp = Router.Spawn.spawn ~name:"probe" ~socket_path:socket ~bundle () in
          if not (Router.Spawn.wait_ready ~timeout_s:30.0 sp) then failwith "probe worker never came up";
          sp)
    in
    Router.Spawn.terminate sp;
    Router.Spawn.wait sp
  done;
  [ ("setup.worker_ready_s", p50 s /. 1e6, "s") ]

(* -- the routed path, on the live topology --

   [hot] are analyze requests whose keys their owning workers already
   hold, so each probe is a fast-path hit.  [rounds] yields 8-line rounds
   from the workload's own replay stream. *)

type routed = {
  overhead_us : float;
  routed_rtt_us : float;
  worker_rtt_us : float;
  route_us : float;
  write1_us : float;
  wait1_us : float;
  figures : (string * float * string) list;
}

let routed ~(topo : Pb_topo.router) ~(workers : (string * string * int) list) ~(hot : Pb_gen.req array)
    ~(rounds : unit -> string list) ~round_budget_s =
  let front =
    Router.Front.create ~forward_timeout_s:30.0 ~workers:(List.map (fun (n, s, _) -> (n, s)) workers) ()
  in
  let owner line =
    match Router.Front.target front line with
    | Some { Router.Front.rt_worker = Some w; _ } -> w
    | _ -> failwith "hot key without an owner"
  in
  let socket_of name = List.find_map (fun (n, s, _) -> if n = name then Some s else None) workers |> Option.get in
  let conn_to path = match Pb_topo.connect path with Ok fd -> Pb_topo.conn fd | Error e -> failwith e in
  (* routed vs direct round trips, 1 in flight, interleaved so drift hits both *)
  let rc = conn_to topo.Pb_topo.socket in
  let direct = List.map (fun (n, s, _) -> (n, conn_to s)) workers in
  let routed_s = samples () and direct_s = samples () in
  let n = 3000 in
  for i = 0 to n - 1 do
    let r = hot.(i mod Array.length hot) in
    let dc = List.assoc (owner r.Pb_gen.line) direct in
    timed routed_s "replay.routed_rtt" (fun () -> ignore (Pb_topo.request rc r.Pb_gen.line));
    timed direct_s "replay.direct_rtt" (fun () -> ignore (Pb_topo.request dc r.Pb_gen.line))
  done;
  topo.Pb_topo.sent <- topo.Pb_topo.sent + n;
  Pb_topo.close rc;
  List.iter (fun (_, c) -> Pb_topo.close c) direct;
  (* parse + ring *)
  let route_s = samples () in
  let sample_lines = List.concat (List.init 64 (fun _ -> rounds ())) in
  for _ = 1 to 8 do
    List.iter (fun l -> timed route_s "router.target" (fun () -> ignore (Router.Front.target front l))) sample_lines
  done;
  (* upstream write / wait on one worker connection, 8-line and 1-line rounds *)
  let w_name, _, _ = List.hd workers in
  let mine = Array.of_list (List.filter (fun r -> owner r.Pb_gen.line = w_name) (Array.to_list hot)) in
  let mine = if Array.length mine = 0 then failwith "worker owns no hot key" else mine in
  let up = match Router.Upstream.connect ~socket_path:(socket_of w_name) with Ok fd -> fd | Error e -> failwith e in
  let residue = ref "" in
  let upstream ~size ~reps =
    let w = samples () and r = samples () in
    for k = 0 to reps - 1 do
      let lines = List.init size (fun j -> mine.((k * size + j) mod Array.length mine).Pb_gen.line) in
      span "upstream.round" (fun parent ->
          (match timed ~parent w "upstream.send_lines" (fun () -> Router.Upstream.send_lines up lines) with
          | Ok () -> ()
          | Error e -> failwith e);
          match
            timed ~parent r "upstream.read_lines" (fun () ->
                Router.Upstream.read_lines up ~residue:!residue ~n:size ~timeout_s:30.0)
          with
          | Ok (_, rest) -> residue := rest
          | Error e -> failwith e)
    done;
    (p50 w, p50 r)
  in
  let write8, wait8 = upstream ~size:8 ~reps:400 in
  let write1, wait1 = upstream ~size:1 ~reps:1000 in
  Unix.close up;
  (* whole rounds through an in-process front over the live workers *)
  let round_s = samples () in
  let t0 = now_ns () in
  while count round_s < 2000 && s_since t0 < round_budget_s do
    let batch = rounds () in
    ignore (timed round_s "router.route_batch" (fun () -> Router.Front.route_batch front batch))
  done;
  Router.Front.close front;
  let rtt_r = p50 routed_s and rtt_d = p50 direct_s and route = p50 route_s in
  let overhead = rtt_r -. rtt_d in
  { overhead_us = overhead; routed_rtt_us = rtt_r; worker_rtt_us = rtt_d; route_us = route;
    write1_us = write1; wait1_us = wait1;
    figures =
      [ ("router.overhead_us", overhead, "us"); ("router.route_us", route, "us");
        ("router.upstream_write_us", write8, "us"); ("router.upstream_wait_us", wait8, "us");
        ("router.round_us", p50 round_s, "us"); ("router.round_p99_us", p99 round_s, "us");
        ("router.unattributed_us", overhead -. route -. write1 -. (wait1 -. rtt_d), "us");
        ("worker.rtt_us", rtt_d, "us") ] }

(* -- fast path and serving layer, in process -- *)

let fastpath ~(srv : Serve.Server.t) ~(hot : Pb_gen.req array) ~(hot_replies : string array) ~lines ~batch ~batch_budget_s =
  Array.iter (fun r -> ignore (Serve.Server.handle_request srv r.Pb_gen.line)) hot;
  let handle = samples () and scan = samples () and probe = samples () and render = samples () in
  let parse = samples () in
  let flows = Fastpath.Shards.create ~shards:8 ~capacity:64 () in
  Array.iteri
    (fun i r ->
      match Serve.Jsonl.of_string hot_replies.(i) with
      | Ok j ->
        Fastpath.Shards.install flows r.Pb_gen.key
          (Fastpath.Entry.make ~nf:r.Pb_gen.nf ~workload:r.Pb_gen.wl
             ~report:(Option.get (Serve.Jsonl.str_member "report" j)) ())
      | Error e -> failwith e)
    hot;
  let b = Buffer.create 8192 in
  for i = 0 to 20_000 - 1 do
    let r = hot.(i mod Array.length hot) in
    let line = r.Pb_gen.line in
    let reply = timed handle "server.handle_request" (fun () -> Serve.Server.handle_request srv line) in
    if i < Array.length hot && Pb_topo.raw "path" (Pb_topo.members reply) <> Some "\"fast\"" then
      failwith ("hot key missed the fast path in process: " ^ r.Pb_gen.key);
    let id =
      timed scan "scan.member" (fun () ->
          List.iter
            (fun k -> ignore (Fastpath.Scan.member line k))
            [ "cmd"; "p4lite"; "nf"; "workload"; "trace_id" ];
          Fastpath.Scan.member line "id")
    in
    let e = timed probe "shards.probe" (fun () -> Fastpath.Shards.probe flows r.Pb_gen.key) in
    let id_off, id_len = Option.get id in
    Buffer.clear b;
    timed render "entry.render_into" (fun () ->
        Fastpath.Entry.render_into b (Option.get e) ~id_src:line ~id_off ~id_len ~trace_src:"t-1"
          ~trace_off:0 ~trace_len:3 ~cached:true ~path:"fast")
  done;
  List.iter (fun l -> timed parse "jsonl.of_string" (fun () -> ignore (Serve.Jsonl.of_string l))) lines;
  let batch_s = samples () in
  let t0 = now_ns () in
  while count batch_s < 2000 && s_since t0 < batch_budget_s do
    let ls = batch () in
    ignore (timed batch_s "server.process_batch" (fun () -> Serve.Server.process_batch srv ls))
  done;
  [ ("fastpath.handle_us", p50 handle, "us"); ("fastpath.scan_us", p50 scan, "us");
    ("fastpath.probe_us", p50 probe, "us"); ("fastpath.render_us", p50 render, "us");
    ("serve.parse_us", p50 parse, "us"); ("serve.batch_us", p50 batch_s, "us");
    ("serve.batch_p99_us", p99 batch_s, "us") ]

let p4lite_compile ~seed =
  let rng = Util.Rng.create seed in
  let s = samples () in
  for k = 1 to 300 do
    let _, prog = Pb_gen.program rng ~name:(Printf.sprintf "c-%d" k) in
    timed s "p4lite.compile" (fun () -> ignore (Nf_lang.P4lite.compile prog))
  done;
  [ ("serve.p4lite_compile_us", p50 s, "us") ]

(* -- the analysis pipeline, stage by stage --

   [inputs] are (element, traffic spec) pairs.  Each is analyzed whole
   with [Pipeline.report_compiled], as the workers do (and checked
   against the uncompiled [Pipeline.report], untimed), then again as the
   separate public calls [Pipeline.analyze] makes.  The insights rebuilt
   from the separate calls must render to the same report. *)

type analysis = { figures : (string * float * string) list; stage_sum_pct : float }

let analysis (m : Clara.Pipeline.models) inputs =
  let c = Clara.Pipeline.compile m in
  let pc = Clara.Predictor.compile m.Clara.Pipeline.predictor in
  let sc = Option.map Clara.Scaleout.compile m.Clara.Pipeline.scaleout in
  let names =
    [ "pipeline.analyze"; "pipeline.prepare"; "pipeline.predict"; "pipeline.algo_detect"; "nicsim.port";
      "pipeline.scaleout"; "pipeline.placement"; "pipeline.coalesce"; "pipeline.render" ]
  in
  let tbl = List.map (fun n -> (n, samples ())) names in
  let st n = List.assoc n tbl in
  List.iter
    (fun ((elt : Nf_lang.Ast.element), (spec : Workload.spec)) ->
      let report =
        timed (st "pipeline.analyze") "pipeline.analyze" (fun () -> Clara.Pipeline.report_compiled c elt spec)
      in
      if Clara.Pipeline.report m elt spec <> report then
        failwith ("Pipeline.report and Pipeline.report_compiled differ for " ^ elt.Nf_lang.Ast.name);
      span "pipeline.stages" (fun parent ->
          let t n f = timed ~parent (st n) n f in
          let prep = t "pipeline.prepare" (fun () -> Clara.Prepare.prepare m.Clara.Pipeline.predictor.Clara.Predictor.vocab elt) in
          let per_block = t "pipeline.predict" (fun () -> Clara.Predictor.predict_element_compiled pc elt) in
          let accel = t "pipeline.algo_detect" (fun () -> Clara.Algo_id.detect m.Clara.Pipeline.algo elt) in
          let ported = t "nicsim.port" (fun () -> Nicsim.Nic.port elt spec) in
          let demand = ported.Nicsim.Nic.demand in
          let cores = t "pipeline.scaleout" (fun () -> Option.map (fun s -> Clara.Scaleout.suggest_compiled s demand) sc) in
          let placement =
            if elt.Nf_lang.Ast.state = [] then []
            else t "pipeline.placement" (fun () -> Clara.Placement.solve elt ported)
          in
          let packs = t "pipeline.coalesce" (fun () -> Clara.Coalesce.suggest elt ported.Nicsim.Nic.profile) in
          let ins =
            { Clara.Insights.nf_name = elt.Nf_lang.Ast.name;
              workload = spec.Workload.name;
              predicted_compute = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 per_block;
              predicted_memory = float_of_int (Clara.Prepare.memory_estimate prep);
              api_calls = prep.Clara.Prepare.api_set;
              accel = List.map (fun (component, algorithm) -> { Clara.Insights.component; algorithm }) accel;
              suggested_cores = cores;
              placement;
              packs }
          in
          let staged = t "pipeline.render" (fun () -> Clara.Insights.render ins) in
          if staged <> report then
            failwith ("stage-by-stage replay disagrees with the whole analysis for " ^ elt.Nf_lang.Ast.name)))
    inputs;
  let stage_total = List.fold_left (fun acc n -> if n = "pipeline.analyze" then acc else acc +. total (st n)) 0.0 names in
  let an = st "pipeline.analyze" in
  { figures =
      ("pipeline.analyze_p99_us", p99 an, "us")
      :: List.map (fun n -> (n ^ "_us", p50 (st n), "us")) names;
    stage_sum_pct = 100.0 *. stage_total /. total an }

(* Minor-heap words one analysis allocates: an exact count, taken with
   the domain pool forced serial so every word lands on this domain. *)
let minor_words (m : Clara.Pipeline.models) inputs =
  let jobs = Util.Pool.jobs () in
  Util.Pool.set_jobs 1;
  let c = Clara.Pipeline.compile m in
  let words =
    List.fold_left
      (fun acc (elt, spec) ->
        let w0 = Gc.minor_words () in
        ignore (Clara.Pipeline.report_compiled c elt spec);
        acc +. (Gc.minor_words () -. w0))
      0.0 inputs
  in
  Util.Pool.set_jobs jobs;
  [ ("pipeline.minor_words_per_analysis", words /. float_of_int (List.length inputs), "words") ]
