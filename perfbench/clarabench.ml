(* The repository benchmark: one workload per run, chosen by name.

     clarabench.exe --workload NAME --seed N --seconds S --trace 0|1 \
       --clara PATH/clara_cli.exe --work DIR

   warm-routed   [clara router --workers 2], a 2-connection x 4-in-flight
                 closed loop over 24 warmed corpus keys (Zipf 1.0)
   churn-routed  the same topology and loop over all 87 corpus keys
                 (Zipf 1.1) plus 10% fresh inline P4lite programs

   The last stdout line is one JSON object: correct, attempted, failed
   and metrics (the end-to-end metrics untraced; the per-layer metrics
   with --trace 1).  Exits 1 when a correctness check or a count
   reconciliation fails. *)

open Pb_stat

let () = Router.Spawn.worker_main_if_requested ()

type outcome = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;
}

let outcome = { correct = true; attempted = 0; failed = 0; metrics = [] }

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        outcome.correct <- false;
        prerr_endline ("clarabench: CHECK FAILED: " ^ msg)
      end)
    fmt

let emit l = outcome.metrics <- outcome.metrics @ l
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("clarabench: " ^ s)) fmt

let manifest () =
  { Persist.Bundle.seed = 501; epochs = 4; corpus_hash = Persist.Bundle.corpus_hash ();
    built_at = "1970-01-01T00:00:00Z" }

let load_bundle dir =
  match Persist.Bundle.load ~dir with
  | Ok b -> b.Persist.Bundle.models
  | Error e -> failwith ("bundle load: " ^ Persist.Wire.error_to_string e)

(* The serving workloads' bundle, trained and saved as [clara train
   --save] does, outside the timed region; traced, also the per-part
   training and persistence figures. *)
let fixture ~trace ~work =
  let bundle = Filename.concat work "fixture" in
  let models, train_us =
    Pb_span.with_ "train.full" (fun _ -> time_us (fun () -> Clara.Pipeline.train ~quick:true ~with_colocation:true ()))
  in
  Persist.Bundle.save ~dir:bundle (manifest ()) models;
  if trace then begin
    let figures, mismatched = Pb_layers.train_breakdown ~models ~full_s:(train_us /. 1e6) in
    List.iter (check false "train breakdown: its %s differs from the one Pipeline.train built") mismatched;
    emit figures;
    emit (Pb_layers.persist ~work ~manifest:(manifest ()) models)
  end;
  bundle

let cpu_of pids = List.fold_left (fun acc pid -> acc +. cpu_us pid) 0.0 pids

let self_cpu_us () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6

(* -- one routed traffic phase -- *)

type phase = {
  lat : samples;  (** per request, failures as +inf *)
  fast : samples;
  slow : samples;
  mutable replies : int;  (** good ones: what [throughput_per_s] counts *)
  mutable analyze_fast : int;
  mutable elapsed_s : float;
}

let new_phase () = { lat = samples (); fast = samples (); slow = samples (); replies = 0; analyze_fast = 0; elapsed_s = 0.0 }

(* First reply seen per distinct key, for the report-bytes check. *)
let first_replies : (string, Pb_gen.req * string) Hashtbl.t = Hashtbl.create 512

let drive ~(rt : Pb_topo.router) ~next ~until_ns ~traced ph =
  let t0 = now_ns () in
  let on_reply (r : Pb_gen.req) reply us s0 s1 =
    outcome.attempted <- outcome.attempted + 1;
    if traced then Pb_span.record ~req:r.Pb_gen.id ~id:(Pb_span.fresh ()) "client.request" s0 s1;
    match Pb_topo.check r reply with
    | Pb_topo.Good path ->
      ph.replies <- ph.replies + 1;
      add ph.lat us;
      (match path with
      | `Fast ->
        ph.analyze_fast <- ph.analyze_fast + 1;
        add ph.fast us
      | `Slow -> add ph.slow us);
      if not (Hashtbl.mem first_replies r.Pb_gen.key) then Hashtbl.add first_replies r.Pb_gen.key (r, reply)
    | Pb_topo.Failed why ->
      add ph.lat infinity;
      outcome.failed <- outcome.failed + 1;
      log "request %d failed: %s" r.Pb_gen.id (String.sub why 0 (min 300 (String.length why)))
    | Pb_topo.Wrong why ->
      add ph.lat infinity;
      outcome.failed <- outcome.failed + 1;
      check false "reply to request %d: %s" r.Pb_gen.id (String.sub why 0 (min 300 (String.length why)))
  in
  let sent = Pb_topo.closed_loop ~socket:rt.Pb_topo.socket ~conns:2 ~depth:4 ~next ~until_ns ~on_reply in
  rt.Pb_topo.sent <- rt.Pb_topo.sent + sent;
  ph.elapsed_s <- s_since t0;
  sent

let from_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl ->
      rest := tl;
      Some r

let deadline seconds = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9))

(* Check each distinct key's report bytes once against an in-process
   server on the same bundle, modulo id/trace_id/cached/path. *)
let verify_reports ~bundle =
  let srv = Serve.Server.create ~cache_capacity:64 ~shards:8 ~flight_capacity:0 (load_bundle bundle) in
  let items = Hashtbl.fold (fun _ v acc -> v :: acc) first_replies [] in
  let items = List.sort (fun ((a : Pb_gen.req), _) (b, _) -> compare a.Pb_gen.id b.Pb_gen.id) items in
  let rec chunks = function
    | [] -> ()
    | l ->
      let now = List.filteri (fun i _ -> i < 16) l and rest = List.filteri (fun i _ -> i >= 16) l in
      let local = Serve.Server.process_batch srv (List.map (fun ((r : Pb_gen.req), _) -> r.Pb_gen.line) now) in
      List.iter2
        (fun ((r : Pb_gen.req), remote) mine ->
          check
            (Serve.Replay.normalize remote = Serve.Replay.normalize mine)
            "report bytes for %s differ from the in-process server" r.Pb_gen.key)
        now local;
      chunks rest
  in
  chunks items;
  log "checked %d distinct reports against the in-process server" (List.length items);
  srv

(* -- the routed topology under closed-loop traffic --

   [st]'s keys are warmed first, then [st] is the measured traffic.
   Untraced it returns the end-to-end figures; traced, the per-layer
   ones, with the analysis stages replayed on [stage_inputs]. *)

let spec_of wl = match Serve.Server.workload_named wl with Ok s -> s | Error e -> failwith e

let routed_run ~exe ~work ~bundle ~seed ~seconds ~trace ~(st : Pb_gen.stream) ~hot_keys ~(replay : Pb_gen.stream)
    ~stage_inputs =
  let socket = Filename.concat work "r.sock" and log_file = Filename.concat work "router.log" in
  (* set-up: launch -> first reply, five times; the last one serves *)
  let launches =
    List.init 5 (fun k ->
        let rt, dt = Pb_topo.launch ~exe ~bundle ~socket ~log:log_file in
        if k < 4 then Pb_topo.stop rt;
        (rt, dt))
  in
  let rt = fst (List.nth launches 4) in
  let setup_s = median (List.map snd launches) in
  let hot = Array.map (Pb_gen.analyze_req ~id:0) hot_keys in
  let rounds () = List.init 8 (fun _ -> (Pb_gen.next replay).Pb_gen.line) in
  let figures, routed =
    Fun.protect ~finally:(fun () -> Pb_topo.stop rt) @@ fun () ->
    let h = Pb_topo.health rt in
    let pids = List.map (fun (_, _, pid) -> pid) h.Pb_topo.workers in
    let warm = new_phase () in
    let warm_n = drive ~rt ~next:(from_list (Pb_gen.one_each st st.Pb_gen.keys)) ~until_ns:Int64.max_int ~traced:false warm in
    let next () = Some (Pb_gen.next st) in
    let cpu0 = (cpu_of [ h.Pb_topo.router_pid ], cpu_of pids, self_cpu_us ()) in
    let main = new_phase () in
    let main_n = drive ~rt ~next ~until_ns:(deadline (if trace then seconds /. 2.0 else seconds)) ~traced:false main in
    let cpu1 = (cpu_of [ h.Pb_topo.router_pid ], cpu_of pids, self_cpu_us ()) in
    let traced = new_phase () in
    let traced_n =
      if not trace then 0
      else begin
        Pb_span.on := true;
        drive ~rt ~next ~until_ns:(deadline (seconds /. 2.0)) ~traced:true traced
      end
    in
    (* reconcile the counts before anything else reaches the workers *)
    let h_end = Pb_topo.health rt in
    check (h_end.Pb_topo.served = rt.Pb_topo.sent) "router served %d lines, the generator sent %d"
      h_end.Pb_topo.served rt.Pb_topo.sent;
    let stats = List.map (fun (_, sock, _) -> Pb_topo.worker_stats sock) h.Pb_topo.workers in
    let sum k = List.fold_left (fun acc j -> acc +. Pb_topo.num k j) 0.0 stats in
    let analyze_lines = warm_n + main_n + traced_n in
    check
      (int_of_float (sum "cache_hits" +. sum "cache_misses") = analyze_lines)
      "workers counted %.0f lookups for %d analyze lines" (sum "cache_hits" +. sum "cache_misses") analyze_lines;
    let rss = List.fold_left (fun acc pid -> Float.max acc (vmhwm_mb pid)) 0.0 (h.Pb_topo.router_pid :: pids) in
    log "timed traffic: %d replies, %d fast-path; workers: %.0f hits, %.0f misses, %.0f evictions"
      (main.replies + traced.replies) (main.analyze_fast + traced.analyze_fast) (sum "cache_hits")
      (sum "cache_misses") (sum "cache_evictions");
    if not trace then
      (* percentiles over every reply of the timed run: on churn about
         5000, so p99 has some 50 replies beyond it *)
      ( [ ("latency_p50_us", p50 main.lat, "us"); ("latency_p99_us", p99 main.lat, "us");
          ("throughput_per_s", float_of_int main.replies /. main.elapsed_s, "1/s"); ("setup_s", setup_s, "s");
          ("peak_rss_mb", rss, "MB") ],
        None )
    else begin
      let (r0, w0, c0), (r1, w1, c1) = (cpu0, cpu1) in
      let per x = x /. float_of_int (max 1 main.replies) in
      let joined f = let s = samples () in List.iter (fun ph -> Array.iter (add s) (to_array (f ph))) [ warm; main; traced ]; s in
      log "untraced half: p50 %.1f us, %.0f/s; traced half: p50 %.1f us, %.0f/s" (p50 main.lat)
        (float_of_int main.replies /. main.elapsed_s) (p50 traced.lat)
        (float_of_int traced.replies /. traced.elapsed_s);
      (* the layer replays need the hot keys cached on their owners *)
      ignore (drive ~rt ~next:(from_list (Pb_gen.one_each st hot_keys)) ~until_ns:Int64.max_int ~traced:false (new_phase ()));
      let r = Pb_layers.routed ~topo:rt ~workers:h.Pb_topo.workers ~hot ~rounds ~round_budget_s:3.0 in
      ( [ ("router.cpu_us_per_req", per (r1 -. r0), "us"); ("worker.cpu_us_per_req", per (w1 -. w0), "us");
          ("client.cpu_us_per_req", per (c1 -. c0), "us");
          ("fastpath.hit_share",
           float_of_int (main.analyze_fast + traced.analyze_fast) /. float_of_int (main.replies + traced.replies),
           "ratio");
          ("serve.cache_hits", sum "cache_hits", "count"); ("serve.cache_misses", sum "cache_misses", "count");
          ("serve.installs", sum "cache_installs", "count"); ("serve.evictions", sum "cache_evictions", "count");
          ("serve.fast_reply_p50_us", p50 (joined (fun p -> p.fast)), "us");
          ("serve.slow_reply_p50_us", p50 (joined (fun p -> p.slow)), "us");
          ("trace.overhead_pct", 100.0 *. (p50 traced.lat -. p50 main.lat) /. p50 main.lat, "%") ]
        @ r.Pb_layers.figures,
        Some r )
    end
  in
  (* the router is down: the in-process checks and replays have both cores *)
  let srv = verify_reports ~bundle in
  match routed with
  | None -> figures
  | Some r ->
    let jobs = Util.Pool.jobs () in
    Util.Pool.set_jobs 1;
    let hot_replies = Array.map (fun k -> snd (Hashtbl.find first_replies (fst k ^ "|" ^ snd k))) hot_keys in
    let lines = List.concat (List.init 250 (fun _ -> rounds ())) in
    let fp =
      Pb_layers.fastpath ~srv ~hot ~hot_replies ~lines ~batch:rounds ~batch_budget_s:3.0
    in
    let handle_us = List.find_map (fun (n, v, _) -> if n = "fastpath.handle_us" then Some v else None) fp in
    let models = load_bundle bundle in
    let a = Pb_layers.analysis models stage_inputs in
    let stages =
      (("trace.stage_sum_analyze_pct", a.Pb_layers.stage_sum_pct, "%") :: a.Pb_layers.figures)
      @ Pb_layers.minor_words models stage_inputs
    in
    Util.Pool.set_jobs jobs;
    figures @ fp @ stages
    @ [ ("trace.stage_sum_routed_pct",
         100.0 *. (r.Pb_layers.route_us +. r.Pb_layers.write1_us +. r.Pb_layers.wait1_us) /. r.Pb_layers.routed_rtt_us,
         "%");
        ("trace.stage_sum_direct_pct", 100.0 *. Option.get handle_us /. r.Pb_layers.worker_rtt_us, "%") ]
    @ Pb_layers.p4lite_compile ~seed:(seed * 31 + 4)
    @ Pb_layers.worker_ready ~work ~bundle

(* -- warm-routed / churn-routed -- *)

let serving ~churn ~seed ~seconds ~trace ~exe ~work =
  let ranked = Pb_gen.popularity () in
  let keys, zipf_s, fresh = if churn then (ranked, 1.1, 0.10) else (Array.sub ranked 0 24, 1.0, 0.0) in
  let st = Pb_gen.stream ~seed:(seed * 31 + 1) ~keys ~zipf_s ~fresh_share:fresh ~prefix:"fresh" in
  let replay = Pb_gen.stream ~seed:(seed * 31 + 2) ~keys ~zipf_s ~fresh_share:fresh ~prefix:"replay" in
  let bundle = fixture ~trace ~work in
  let hot_keys = Array.sub ranked 0 24 in
  let stage_inputs =
    let corpus = Array.to_list (Array.map (fun (nf, wl) -> (Nf_lang.Corpus.find nf, spec_of wl)) (Array.sub hot_keys 0 (if churn then 12 else 24))) in
    if not churn then corpus
    else
      let prng = Util.Rng.create (seed * 31 + 3) in
      corpus
      @ List.init 12 (fun k ->
            let _, prog = Pb_gen.program prng ~name:(Printf.sprintf "stage-%d" k) in
            (Nf_lang.P4lite.compile prog, spec_of (Pb_gen.pick prng (Array.of_list Pb_gen.workload_names))))
  in
  emit
    (routed_run ~exe ~work ~bundle ~seed ~seconds ~trace ~st ~hot_keys ~replay ~stage_inputs)

(* -- command line and result -- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else if v > 0.0 then "1e308" else "-1e308"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "" and work = ref ".perfbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME warm-routed | churn-routed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--clara", Arg.Set_string exe, "PATH the clara_cli executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for bundles, sockets and spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "clarabench --workload NAME --seed N --seconds S --trace 0|1 --clara PATH";
  let trace = !trace = 1 and seconds = !seconds and seed = !seed and work = !work and exe = !exe in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  log "workload %s, seed %d, %.0f s, trace %b, nproc %d, CLARA_JOBS %d (serving workers: 1)" !workload seed
    seconds trace (Domain.recommended_domain_count ()) (Util.Pool.jobs ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (match !workload with
  | "warm-routed" -> serving ~churn:false ~seed ~seconds ~trace ~exe ~work
  | "churn-routed" -> serving ~churn:true ~seed ~seconds ~trace ~exe ~work
  | w ->
    prerr_endline ("clarabench: unknown workload " ^ w);
    exit 2);
  if trace then begin
    let path = Filename.concat work (Printf.sprintf "spans-%s-%d.jsonl" !workload seed) in
    Pb_span.write ~path;
    List.iter
      (fun (name, (n, tot, self)) -> log "span %-26s n=%-7d total %10.1f ms  self %10.1f ms" name n (tot /. 1e3) (self /. 1e3))
      (Pb_span.summary ());
    log "wrote %d spans to %s" (List.length !Pb_span.spans) path
  end;
  let metrics =
    String.concat ", "
      (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u) outcome.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" outcome.correct
    (max 1 outcome.attempted) outcome.failed metrics;
  if not outcome.correct then exit 1
