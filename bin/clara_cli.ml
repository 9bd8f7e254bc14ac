(** clara — command-line front-end for the Clara reproduction.

    Subcommands:
    - [list]                      corpus inventory
    - [show NF]                   pretty-print an element and its stats
    - [analyze NF]                print insights (train, or warm-start via --model)
    - [train --save DIR]          train once and persist the model bundle
    - [serve --socket PATH]       long-running insight service (see lib/serve)
    - [router --socket PATH]      scale-out front: spawn N workers and
                                  consistent-hash requests over them (lib/router)
    - [rollout ACTION]            drive a canary rollout on a running router
                                  (start / promote / rollback / status)
    - [query --socket PATH NF]    one request against a running service
    - [quality --socket PATH]     prediction-quality telemetry of a running service
    - [flight --socket PATH]      flight-recorder snapshot (optionally dump to a file)
    - [replay DUMP --model DIR]   re-issue a flight dump and byte-diff the replies
    - [port NF]                   measure naive vs Clara-configured port
    - [sweep NF]                  print the core-count sweep
    - [profile [NF]]              NF execution profile, or a running service's
                                  continuous-profiler flamegraph
    - [experiment ID...]          run paper experiments (or 'all') *)

open Cmdliner

let workload_conv =
  let parse s =
    match Serve.Server.workload_named s with Ok w -> Ok w | Error msg -> Error (`Msg msg)
  in
  let print fmt (w : Workload.spec) = Format.fprintf fmt "%s" w.Workload.name in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(value & opt workload_conv Serve.Server.mixed_spec
       & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Traffic profile: mixed, large or small flows.")

let nf_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NF" ~doc:"Corpus element name (see 'clara list').")

(** [Corpus.find] with a usable failure mode: unknown names exit 1 after
    logging what the corpus does contain. *)
let find_nf name =
  match Nf_lang.Corpus.find name with
  | elt -> elt
  | exception Failure _ ->
    Obs.Log.error
      ~fields:
        [ ("nf", Obs.Log.Str name);
          ("valid", Obs.Log.Str (String.concat ", " (Serve.Server.corpus_names ()))) ]
      "unknown NF";
    exit 1

(* Salvaging load: corrupt optional components are dropped (with a warning
   each), so a torn write degrades the bundle instead of failing it; [None]
   only when the manifest or a required model is unreadable. *)
let salvage_bundle dir =
  match Persist.Bundle.load_salvage ~dir with
  | Ok (b, dropped) ->
    List.iter
      (fun (file, e) ->
        Obs.Log.warn
          ~fields:
            [ ("bundle", Obs.Log.Str dir);
              ("file", Obs.Log.Str file);
              ("error", Obs.Log.Str (Persist.Wire.error_to_string e)) ]
          "dropped corrupt optional component")
      dropped;
    if b.Persist.Bundle.manifest.Persist.Bundle.corpus_hash <> Persist.Bundle.corpus_hash () then
      Obs.Log.warn
        ~fields:
          [ ("bundle", Obs.Log.Str dir);
            ("bundle_corpus_hash", Obs.Log.Str b.Persist.Bundle.manifest.Persist.Bundle.corpus_hash);
            ("current_corpus_hash", Obs.Log.Str (Persist.Bundle.corpus_hash ())) ]
        "bundle was trained against a different corpus";
    Some b
  | Error e ->
    Obs.Log.error
      ~fields:
        [ ("bundle", Obs.Log.Str dir);
          ("error", Obs.Log.Str (Persist.Wire.error_to_string e)) ]
      "cannot load model bundle";
    None

let load_bundle dir = match salvage_bundle dir with Some b -> b | None -> exit 1

let train_models ~full =
  Printf.printf "Training Clara (%s mode)...\n%!" (if full then "full" else "quick");
  Clara.Pipeline.train ~quick:(not full) ~with_colocation:true ()

let iso8601_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* The one manifest: what [train --save] and a router started without
   [--model] write next to the models. *)
let save_bundle ~full ~dir models =
  let manifest =
    { Persist.Bundle.seed = 501;
      epochs = (if full then 10 else 4);
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = iso8601_now () }
  in
  Persist.Bundle.save ~dir manifest models

let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Use full-size training sets.")

(* -- observability plumbing -- *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record timed spans and write a Chrome-trace JSON file (open in chrome://tracing).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write accumulated counters/gauges/histograms as Prometheus-style text on exit.")

let telemetry_arg =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Write per-epoch/per-round training loss series (Obs.Series) as JSON on exit.")

(** Enable span recording when [--trace] was given, run [f], then flush the
    requested trace/metrics/telemetry files (also on exceptions, so a
    crashed run still leaves its telemetry behind). *)
let with_obs ?telemetry ~trace ~metrics f =
  if trace <> None then Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          Obs.Span.write_chrome path;
          Obs.Log.info
            ~fields:
              [ ("path", Obs.Log.Str path);
                ("spans", Obs.Log.Int (List.length (Obs.Span.events ()))) ]
            "wrote trace")
        trace;
      Option.iter
        (fun path ->
          Obs.Runtime.sample ();
          Obs.Metrics.write_file path;
          Obs.Log.info ~fields:[ ("path", Obs.Log.Str path) ] "wrote metrics")
        metrics;
      Option.iter
        (fun path ->
          Obs.Series.write_file path;
          Obs.Log.info
            ~fields:
              [ ("path", Obs.Log.Str path);
                ("series", Obs.Log.Int (List.length (Obs.Series.names ()))) ]
            "wrote training telemetry")
        telemetry)
    f

(* [--http-port]: the HTTP exporter [create port] builds runs on its own
   domain so a scrape never queues behind the socket select loop, and the
   Runtime sampler keeps GC gauges fresh between scrapes.  [f] gets the
   bound port as log fields; the exporter stops once [f] returns. *)
let with_http_exporter http_port create f =
  let http =
    Option.map
      (fun port ->
        let h = create port in
        Obs.Runtime.start ();
        (h, Domain.spawn (fun () -> Serve.Http.run h)))
      http_port
  in
  let result =
    f (match http with Some (h, _) -> [ ("http_port", Obs.Log.Int (Serve.Http.port h)) ] | None -> [])
  in
  Option.iter
    (fun (h, d) ->
      Serve.Http.stop h;
      Domain.join d;
      Obs.Runtime.stop ())
    http;
  result

let model_arg =
  Arg.(value & opt (some dir) None
       & info [ "model" ] ~docv:"DIR" ~doc:"Warm-start from a saved model bundle instead of training.")

let socket_arg =
  Arg.(value & opt string "/tmp/clara.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

(* Shared by the client verbs (query, rollout, quality, flight): the
   retrying client's budget, as a [(retries, timeout_s)] pair. *)
let client_arg ?(timeout_s = 10.0) () =
  let retries =
    Arg.(value & opt int 4
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry budget for overloaded replies and transient I/O errors (jittered \
                   exponential backoff).")
  in
  let timeout_s =
    Arg.(value & opt float timeout_s
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-attempt round-trip timeout.")
  in
  Term.(const (fun r t -> (r, t)) $ retries $ timeout_s)

(* One request through the retrying client, which owns the failure
   modes: connect errors, timeouts, disconnects and overloaded replies
   are re-attempted with jittered backoff.  When it still fails, log
   [what] and exit 1. *)
let request_or_exit ~socket ~what (retries, timeout_s) fields =
  let client = Serve.Client.create ~timeout_s ~retries ~socket_path:socket () in
  let outcome = Serve.Client.request client fields in
  Serve.Client.close client;
  match outcome with
  | Ok j -> j
  | Error err ->
    Obs.Log.error
      ~fields:
        [ ("socket", Obs.Log.Str socket);
          ("error", Obs.Log.Str (Serve.Client.error_to_string err));
          ("attempts", Obs.Log.Int (Serve.Client.attempts client)) ]
      what;
    exit 1

(* Shared by the daemon verbs (serve, router). *)
let log_file_arg =
  Arg.(value & opt (some string) None
       & info [ "log" ] ~docv:"FILE"
           ~doc:"Write structured JSONL logs to FILE ('stderr'/'-' for stderr, 'off'/'none' to \
                 silence; default: \\$CLARA_LOG, else stderr).")

let log_level_arg =
  let level_conv =
    let parse s =
      match Obs.Log.level_of_string s with
      | Some l -> Ok l
      | None -> Error (`Msg (Printf.sprintf "unknown log level %S (debug|info|warn|error)" s))
    in
    Arg.conv (parse, fun fmt l -> Format.fprintf fmt "%s" (Obs.Log.level_name l))
  in
  Arg.(value & opt (some level_conv) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Log threshold: debug, info, warn or error (default: \\$CLARA_LOG_LEVEL, else \
                 info).")

(* --log / --log-level win over the CLARA_LOG/CLARA_LOG_LEVEL environment
   defaults already applied at startup; returns the sink name for the
   startup log line. *)
let apply_log_opts log_file log_level =
  let sink_name =
    match log_file with
    | None -> "default"
    | Some ("stderr" | "-") ->
      Obs.Log.set_sink Obs.Log.Stderr;
      "stderr"
    | Some ("off" | "none") ->
      Obs.Log.set_sink Obs.Log.Off;
      "off"
    | Some path ->
      Obs.Log.set_sink (Obs.Log.File path);
      path
  in
  Option.iter Obs.Log.set_level log_level;
  sink_name

(* -- list -- *)

let list_cmd =
  let run () =
    Util.Table.print ~align:Util.Table.Left
      ~header:[ "name"; "LoC"; "stateful"; "structures" ]
      (List.map
         (fun e ->
           [ e.Nf_lang.Ast.name;
             string_of_int (Nf_lang.Pp.loc e);
             (if Nf_lang.Ast.is_stateful e then "yes" else "no");
             string_of_int (List.length e.Nf_lang.Ast.state) ])
         (Nf_lang.Corpus.all ()))
  in
  Cmd.v (Cmd.info "list" ~doc:"List the NF corpus") Term.(const run $ const ())

(* -- show -- *)

let show_cmd =
  let run name =
    let elt = find_nf name in
    print_endline (Nf_lang.Pp.to_string elt);
    let v = Clara.Vocab.create () in
    let prep = Clara.Prepare.prepare v elt in
    Printf.printf
      "\n; %d LoC, %d IR instructions (%d compute, %d stateful memory), %d API call sites, %d blocks\n"
      prep.Clara.Prepare.loc
      (Nf_ir.Ir.count_total prep.Clara.Prepare.ir)
      (Nf_ir.Ir.count_compute prep.Clara.Prepare.ir)
      (Nf_ir.Ir.count_stateful_mem prep.Clara.Prepare.ir)
      (Nf_ir.Ir.count_api prep.Clara.Prepare.ir)
      (List.length prep.Clara.Prepare.blocks)
  in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print an element and its IR statistics")
    Term.(const run $ nf_arg)

(* -- train -- *)

let train_cmd =
  let run save full trace metrics telemetry =
    with_obs ?telemetry ~trace ~metrics @@ fun () ->
    let models = train_models ~full in
    match save with
    | None -> print_endline "Training done (nothing persisted; pass --save DIR to keep it)."
    | Some dir ->
      save_bundle ~full ~dir models;
      Printf.printf "Saved model bundle to %s\n" dir
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"DIR" ~doc:"Persist the trained bundle to this directory.")
  in
  Cmd.v (Cmd.info "train" ~doc:"Train Clara's models and optionally persist them")
    Term.(const run $ save $ full_arg $ trace_arg $ metrics_arg $ telemetry_arg)

(* -- analyze -- *)

let analyze_cmd =
  let run name spec full model trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let elt = find_nf name in
    let models =
      match model with
      | Some dir ->
        let b = load_bundle dir in
        Printf.printf "Loaded model bundle from %s (built %s)\n%!" dir
          b.Persist.Bundle.manifest.Persist.Bundle.built_at;
        b.Persist.Bundle.models
      | None -> train_models ~full
    in
    print_endline (Clara.Pipeline.report models elt spec);
    Printf.printf "\nPrediction quality vs the NIC compiler: WMAPE %.1f%%, memory accuracy %.1f%%\n"
      (100.0 *. Clara.Predictor.wmape_on_element models.Clara.Pipeline.predictor elt)
      (100.0 *. Clara.Predictor.memory_accuracy elt)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Generate offloading insights for an unported NF")
    Term.(const run $ nf_arg $ workload_arg $ full_arg $ model_arg $ trace_arg $ metrics_arg)

(* -- serve -- *)

let serve_cmd =
  let run model socket full cache_capacity http_port trace_requests slow_ms deadline_ms
      max_pending max_clients shadow_rate flight_capacity flight_dir profile_hz log_file
      log_level =
    if trace_requests then Obs.Span.set_enabled true;
    let log_sink_name = apply_log_opts log_file log_level in
    let models, bundle_version =
      match model with
      | Some dir -> (
        (* A long-running service prefers a cold start over refusing to
           start: an unreadable bundle (torn write, version skew) falls
           back to training. *)
        match salvage_bundle dir with
        | Some b ->
          let version = Persist.Bundle.version b.Persist.Bundle.manifest in
          Obs.Log.info
            ~fields:
              [ ("bundle", Obs.Log.Str dir);
                ("version", Obs.Log.Str version);
                ("built_at", Obs.Log.Str b.Persist.Bundle.manifest.Persist.Bundle.built_at) ]
            "warm-started from bundle";
          (b.Persist.Bundle.models, version)
        | None ->
          Obs.Log.warn
            ~fields:[ ("bundle", Obs.Log.Str dir) ]
            "bundle unreadable; cold-starting (training)";
          (train_models ~full, "trained"))
      | None -> (train_models ~full, "trained")
    in
    let slow_threshold_s = Option.map (fun ms -> ms /. 1000.0) slow_ms in
    let server =
      Serve.Server.create ~cache_capacity ?slow_threshold_s ?deadline_ms ~max_pending
        ~max_clients ?shadow_rate ?flight_capacity ?flight_dir ~version:bundle_version models
    in
    (* --profile HZ starts the continuous profiler; CLARA_PROF_HZ alone
       also turns it on (the env value supplies the rate). *)
    (match profile_hz with
    | Some hz -> Obs.Prof.start ~hz ()
    | None -> if Sys.getenv_opt "CLARA_PROF_HZ" <> None then Obs.Prof.start ());
    let started_s = Unix.gettimeofday () in
    let http port =
      Serve.Http.create ~port
        ~quality:(fun () -> Serve.Server.quality_json server)
        ~health:(fun () ->
          Printf.sprintf
            "{\"ok\":true,\"uptime_s\":%.1f,\"bundle\":\"%s\",\"pid\":%d,\"draining\":%b}\n"
            (Unix.gettimeofday () -. started_s)
            bundle_version (Unix.getpid ())
            (Serve.Server.draining server))
        ~flight:(fun () -> Serve.Server.flight_json server)
        ()
    in
    with_http_exporter http_port http (fun http_fields ->
        Obs.Log.info
          ~fields:
            ([ ("socket", Obs.Log.Str socket);
               ("jobs", Obs.Log.Int (Util.Pool.size ()));
               ("cache_capacity", Obs.Log.Int cache_capacity);
               ("shadow_rate", Obs.Log.Num (Serve.Quality.rate (Serve.Server.quality server)));
               ("log_sink", Obs.Log.Str log_sink_name);
               ("log_level", Obs.Log.Str (Obs.Log.level_name (Obs.Log.level ())));
               ("tracing", Obs.Log.Bool (Obs.Span.enabled ()));
               ("flight_capacity",
                Obs.Log.Int (Obs.Flight.capacity (Serve.Server.flight server)));
               ("profiling", Obs.Log.Bool (Obs.Prof.enabled ())) ]
            @ http_fields)
          "clara serve starting";
        Serve.Server.run server ~socket_path:socket;
        Obs.Prof.stop ());
    Obs.Log.info
      ~fields:
        [ ("served", Obs.Log.Int (Serve.Server.served server));
          ("cache_hits", Obs.Log.Int (Serve.Server.cache_hits server));
          ("cache_misses", Obs.Log.Int (Serve.Server.cache_misses server)) ]
      "clara serve stopped"
  in
  let cache_capacity =
    Arg.(value & opt int 64
         & info [ "cache" ] ~docv:"N"
             ~doc:"Flow-cache entry budget, one LRU over all of it (0 disables caching).")
  in
  let http_port =
    Arg.(value & opt (some int) None
         & info [ "http" ] ~docv:"PORT"
             ~doc:"Also serve GET /metrics, /healthz and /trace.json over HTTP on 127.0.0.1:PORT \
                   (0 picks an ephemeral port).")
  in
  let trace_requests =
    Arg.(value & flag
         & info [ "trace-requests" ]
             ~doc:"Record spans for every request so the 'trace' command (and /trace.json) can \
                   return per-request span subtrees.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log requests slower than this threshold (default: \\$CLARA_SLOW_MS, else 1000).")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request time budget; overrun requests get a deadline_exceeded \
                   reply.  A request's own \"deadline_ms\" field wins (default: \
                   \\$CLARA_DEADLINE_MS, else unlimited).")
  in
  let max_pending =
    Arg.(value & opt int 256
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Request lines admitted per batch; the rest are shed with an overloaded reply.")
  in
  let max_clients =
    Arg.(value & opt int 64
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Concurrent connections held; extra connections get one overloaded reply and \
                   are closed.")
  in
  let shadow_rate =
    Arg.(value & opt (some float) None
         & info [ "shadow-rate" ] ~docv:"R"
             ~doc:"Shadow-evaluate this fraction of analyze answers (0..1) against the cheap \
                   simulator ground truth, feeding the 'quality' telemetry (default: \
                   \\$CLARA_SHADOW_RATE, else 0 = off).")
  in
  let flight_capacity =
    Arg.(value & opt (some int) None
         & info [ "flight" ] ~docv:"N"
             ~doc:"Flight-recorder ring size in records (default: \\$CLARA_FLIGHT, else 256; \
                   0 disables recording).")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Write triggered flight dumps (slow requests, deadline overruns, faults, \
                   exceptions) into DIR as JSONL; without it triggers only count.  SIGQUIT \
                   dumps always write (temp dir fallback).  Default: \\$CLARA_FLIGHT_DIR.")
  in
  let profile_hz =
    Arg.(value & opt (some float) None
         & info [ "profile" ] ~docv:"HZ"
             ~doc:"Start the sampling continuous profiler at HZ samples/s (see 'clara profile' \
                   and GET /profile.folded).  Default: off, or \\$CLARA_PROF_HZ.")
  in
  Cmd.v (Cmd.info "serve" ~doc:"Run the long-lived insight service on a Unix socket")
    Term.(const run $ model_arg $ socket_arg $ full_arg $ cache_capacity $ http_port
          $ trace_requests $ slow_ms $ deadline_ms $ max_pending $ max_clients $ shadow_rate
          $ flight_capacity $ flight_dir $ profile_hz $ log_file_arg $ log_level_arg)

(* -- query -- *)

let query_cmd =
  let run socket name wname deadline_ms client =
    let fields =
      Serve.Jsonl.
        [ ("cmd", Str "analyze"); ("nf", Str name); ("workload", Str wname) ]
      @ match deadline_ms with Some ms -> [ ("deadline_ms", Serve.Jsonl.Num ms) ] | None -> []
    in
    let j =
      request_or_exit ~socket ~what:"query failed (is 'clara serve' running?)" client fields
    in
    match Serve.Jsonl.member "ok" j with
    | Some (Serve.Jsonl.Bool true) ->
      (match Serve.Jsonl.str_member "report" j with
      | Some report -> print_string report
      | None -> print_endline (Serve.Jsonl.to_string j));
      (match Serve.Jsonl.member "cached" j with
      | Some (Serve.Jsonl.Bool c) ->
        let via =
          match Serve.Jsonl.str_member "path" j with
          | Some p -> Printf.sprintf " via the %s path" p
          | None -> ""
        in
        Printf.printf "\n; served %s%s\n"
          (if c then "from cache" else "freshly analyzed")
          via
      | _ -> ())
    | _ ->
      let msg =
        Option.value (Serve.Jsonl.str_member "error" j)
          ~default:(Serve.Jsonl.to_string j)
      in
      let valid =
        match Serve.Jsonl.member "valid" j with
        | Some (Serve.Jsonl.Arr names) ->
          [ ("valid",
             Obs.Log.Str
               (String.concat ", "
                  (List.filter_map
                     (function Serve.Jsonl.Str s -> Some s | _ -> None)
                     names))) ]
        | _ -> []
      in
      Obs.Log.error ~fields:(("error", Obs.Log.Str msg) :: valid) "server error";
      exit 1
  in
  let wname =
    Arg.(value & opt string "mixed"
         & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Traffic profile: mixed, large or small.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request time budget; the server answers deadline_exceeded when it runs out.")
  in
  Cmd.v (Cmd.info "query" ~doc:"Query a running insight service for one NF")
    Term.(const run $ socket_arg $ nf_arg $ wname $ deadline_ms $ client_arg ())

(* -- router -- *)

let router_cmd =
  let run model socket full workers vnodes tenant_quota health_period_s forward_timeout_s
      max_clients http_port worker_cache worker_max_pending worker_max_clients
      log_file log_level =
    let log_sink_name = apply_log_opts log_file log_level in
    (* Workers load their models from a bundle directory; without --model,
       train once here and persist a fleet bundle for them. *)
    let bundle_dir =
      match model with
      | Some dir -> dir
      | None ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "clara-router-bundle-%d" (Unix.getpid ()))
        in
        save_bundle ~full ~dir (train_models ~full);
        Obs.Log.info ~fields:[ ("bundle", Obs.Log.Str dir) ] "trained and saved fleet bundle";
        dir
    in
    match Persist.Bundle.peek_version ~dir:bundle_dir with
    | Error e ->
      Obs.Log.error
        ~fields:
          [ ("bundle", Obs.Log.Str bundle_dir);
            ("error", Obs.Log.Str (Persist.Wire.error_to_string e)) ]
        "cannot read fleet bundle";
      exit 1
    | Ok version ->
      (* Each router client holds its own connection to each worker it
         sends to, beside the router's health/control connection. *)
      let worker_max_clients = Option.value worker_max_clients ~default:(max_clients + 1) in
      let spawned =
        List.init workers (fun k ->
            let name = Printf.sprintf "w%d" k in
            Router.Spawn.spawn ~quiet:false ~cache_capacity:worker_cache
              ~max_pending:worker_max_pending ~max_clients:worker_max_clients ~name
              ~socket_path:(Printf.sprintf "%s.%s" socket name) ~bundle:bundle_dir ())
      in
      let reap_all () =
        List.iter Router.Spawn.terminate spawned;
        List.iter Router.Spawn.wait spawned
      in
      if not (List.for_all (fun sp -> Router.Spawn.wait_ready sp) spawned) then begin
        Obs.Log.error ~fields:[ ("workers", Obs.Log.Int workers) ] "a worker never came up";
        List.iter Router.Spawn.kill spawned;
        List.iter Router.Spawn.wait spawned;
        exit 1
      end;
      let front =
        Router.Front.create ~vnodes ~tenant_quota ~forward_timeout_s ~health_period_s
          ~max_clients ~active_bundle:bundle_dir
          ~workers:
            (List.map (fun sp -> (sp.Router.Spawn.sp_name, sp.Router.Spawn.sp_socket)) spawned)
          ()
      in
      (* /healthz serves the aggregated fan-in document the router
         rebuilds after every round and probe sweep. *)
      let http port =
        Serve.Http.create ~port ~health:(fun () -> Router.Front.healthz_cached front ^ "\n") ()
      in
      with_http_exporter http_port http (fun http_fields ->
          Obs.Log.info
            ~fields:
              ([ ("socket", Obs.Log.Str socket);
                 ("workers", Obs.Log.Int workers);
                 ("bundle", Obs.Log.Str bundle_dir);
                 ("version", Obs.Log.Str version);
                 ("tenant_quota", Obs.Log.Int tenant_quota);
                 ("log_sink", Obs.Log.Str log_sink_name) ]
              @ http_fields)
            "clara router starting";
          Router.Front.run front ~socket_path:socket);
      reap_all ();
      Obs.Log.info
        ~fields:
          [ ("served", Obs.Log.Int (Router.Front.served front));
            ("forwarded", Obs.Log.Int (Router.Front.forwarded front));
            ("unavailable", Obs.Log.Int (Router.Front.unavailable front));
            ("failovers", Obs.Log.Int (Router.Front.failovers front)) ]
        "clara router stopped"
  in
  let workers =
    Arg.(value & opt int 3
         & info [ "workers" ] ~docv:"N" ~doc:"Worker processes to spawn (each is one server).")
  in
  let vnodes =
    Arg.(value & opt int 64
         & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per worker on the consistent-hash ring.")
  in
  let tenant_quota =
    Arg.(value & opt int 0
         & info [ "tenant-quota" ] ~docv:"N"
             ~doc:"Request lines admitted per tenant per round; over-quota lines are shed with \
                   a typed overloaded reply (0 = unlimited).")
  in
  let health_period_s =
    Arg.(value & opt float 0.5
         & info [ "health-period" ] ~docv:"SECONDS"
             ~doc:"Seconds between worker health sweeps (version/draining fan-in, failback).")
  in
  let forward_timeout_s =
    Arg.(value & opt float 5.0
         & info [ "forward-timeout" ] ~docv:"SECONDS"
             ~doc:"How long a forwarded line may wait for its worker's reply; an overrun marks \
                   the worker down.")
  in
  let max_clients =
    Arg.(value & opt int 64
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Concurrent router connections held; extra connections get one overloaded \
                   reply and are closed.")
  in
  let http_port =
    Arg.(value & opt (some int) None
         & info [ "http" ] ~docv:"PORT"
             ~doc:"Also serve the aggregated GET /healthz (and /metrics) over HTTP on \
                   127.0.0.1:PORT (0 picks an ephemeral port).")
  in
  let worker_cache =
    Arg.(value & opt int 64
         & info [ "worker-cache" ] ~docv:"N" ~doc:"Each worker's flow-cache entry budget.")
  in
  let worker_max_pending =
    Arg.(value & opt int 256
         & info [ "worker-max-pending" ] ~docv:"N"
             ~doc:"Each worker's per-batch admission bound.")
  in
  let worker_max_clients =
    Arg.(value & opt (some int) None
         & info [ "worker-max-clients" ] ~docv:"N"
             ~doc:"Each worker's connection bound.  The router holds one connection per \
                   client connection that sends the worker a line, plus one for health \
                   probes and rollout control: the default is --max-clients plus one.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:"Run the scale-out front: spawn worker processes and consistent-hash requests over \
             them")
    Term.(const run $ model_arg $ socket_arg $ full_arg $ workers $ vnodes $ tenant_quota
          $ health_period_s $ forward_timeout_s $ max_clients $ http_port $ worker_cache
          $ worker_max_pending $ worker_max_clients $ log_file_arg $ log_level_arg)

(* -- rollout -- *)

let rollout_cmd =
  let run socket action bundle fraction seed client =
    let fields =
      match action with
      | "start" -> (
        match bundle with
        | None ->
          Obs.Log.error "rollout start needs --bundle DIR";
          exit 1
        | Some dir ->
          Serve.Jsonl.
            [ ("cmd", Str "rollout"); ("bundle", Str dir); ("fraction", Num fraction) ]
          @ (match seed with
            | Some s -> [ ("seed", Serve.Jsonl.Num (float_of_int s)) ]
            | None -> []))
      | "promote" -> [ ("cmd", Serve.Jsonl.Str "promote") ]
      | "rollback" -> [ ("cmd", Serve.Jsonl.Str "rollback") ]
      | "status" -> [ ("cmd", Serve.Jsonl.Str "health") ]
      | other ->
        Obs.Log.error ~fields:[ ("action", Obs.Log.Str other) ]
          "unknown action (start|promote|rollback|status)";
        exit 1
    in
    let j =
      request_or_exit ~socket ~what:"rollout failed (is 'clara router' running?)" client fields
    in
    print_endline (Serve.Jsonl.to_string j);
    match Serve.Jsonl.member "ok" j with Some (Serve.Jsonl.Bool true) -> () | _ -> exit 1
  in
  let action =
    Arg.(value & pos 0 string "status"
         & info [] ~docv:"ACTION"
             ~doc:"start (canary --bundle at --fraction), promote, rollback, or status.")
  in
  let bundle =
    Arg.(value & opt (some dir) None
         & info [ "bundle" ] ~docv:"DIR" ~doc:"Model-bundle directory to roll out.")
  in
  let fraction =
    Arg.(value & opt float 0.1
         & info [ "fraction" ] ~docv:"F" ~doc:"Keyspace fraction steered at the canaries (0..1].")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"N" ~doc:"Canary-draw seed (default: the router's).")
  in
  (* reloads load and recompile a bundle: allow timeout headroom *)
  let client = client_arg ~timeout_s:30.0 () in
  Cmd.v
    (Cmd.info "rollout"
       ~doc:"Drive a zero-downtime canary rollout against a running router")
    Term.(const run $ socket_arg $ action $ bundle $ fraction $ seed $ client)

(* -- quality -- *)

let quality_cmd =
  let run socket client =
    let j =
      request_or_exit ~socket ~what:"quality query failed (is 'clara serve' running?)" client
        [ ("cmd", Serve.Jsonl.Str "quality") ]
    in
    match Serve.Jsonl.str_member "quality" j with
    | Some q -> print_endline q
    | None ->
      Obs.Log.error
        ~fields:[ ("reply", Obs.Log.Str (Serve.Jsonl.to_string j)) ]
        "server did not return quality telemetry";
      exit 1
  in
  Cmd.v
    (Cmd.info "quality"
       ~doc:"Fetch prediction-quality telemetry (error sketches, drift, SLO burn rates) from a \
             running service")
    Term.(const run $ socket_arg $ client_arg ())

(* -- flight -- *)

let flight_cmd =
  let run socket dump client =
    let fields =
      ("cmd", Serve.Jsonl.Str "flight")
      :: (match dump with Some path -> [ ("dump", Serve.Jsonl.Str path) ] | None -> [])
    in
    let j =
      request_or_exit ~socket ~what:"flight query failed (is 'clara serve' running?)" client
        fields
    in
    match Serve.Jsonl.str_member "flight" j with
    | Some doc -> (
      print_endline doc;
      match (Serve.Jsonl.str_member "dumped" j, Serve.Jsonl.str_member "dump_error" j) with
      | Some path, _ ->
        Obs.Log.info ~fields:[ ("path", Obs.Log.Str path) ] "server wrote flight dump"
      | None, Some msg ->
        Obs.Log.error ~fields:[ ("error", Obs.Log.Str msg) ] "server could not write dump";
        exit 1
      | None, None -> ())
    | None ->
      Obs.Log.error
        ~fields:[ ("reply", Obs.Log.Str (Serve.Jsonl.to_string j)) ]
        "server did not return a flight snapshot";
      exit 1
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"PATH"
             ~doc:"Also have the server write its rings as a JSONL dump to PATH (server-side \
                   path; feed it to 'clara replay').")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:"Fetch a running service's flight-recorder snapshot (and optionally dump it to a \
             file for 'clara replay')")
    Term.(const run $ socket_arg $ dump $ client_arg ())

(* -- replay -- *)

let replay_cmd =
  let run dump model cache json =
    let header, records =
      match Serve.Replay.load dump with
      | Ok hr -> hr
      | Error msg ->
        Obs.Log.error
          ~fields:[ ("dump", Obs.Log.Str dump); ("error", Obs.Log.Str msg) ]
          "cannot load flight dump";
        exit 1
    in
    let b = load_bundle model in
    let server = Serve.Replay.server_for ~cache_capacity:cache b.Persist.Bundle.models in
    let r = Serve.Replay.replay ~server records in
    if json then print_endline (Serve.Replay.to_json_string r)
    else begin
      Printf.printf
        "replayed %s (trigger %s, pid %d): %d records, %d compared, %d matched, %d diverged\n"
        dump header.Serve.Replay.h_trigger header.Serve.Replay.h_pid r.Serve.Replay.total
        r.Serve.Replay.compared r.Serve.Replay.matched
        (List.length r.Serve.Replay.diverged);
      if r.Serve.Replay.skipped_env + r.Serve.Replay.skipped_volatile
         + r.Serve.Replay.skipped_truncated > 0
      then
        Printf.printf "skipped: %d environmental, %d volatile-command, %d truncated\n"
          r.Serve.Replay.skipped_env r.Serve.Replay.skipped_volatile
          r.Serve.Replay.skipped_truncated;
      List.iter
        (fun (d : Serve.Replay.divergence) ->
          Printf.printf "DIVERGED seq %d\n  request:  %s\n  expected: %s\n  got:      %s\n"
            d.Serve.Replay.d_seq d.Serve.Replay.d_request d.Serve.Replay.d_expected
            d.Serve.Replay.d_got)
        r.Serve.Replay.diverged
    end;
    if r.Serve.Replay.diverged <> [] then exit 1
  in
  let dump =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"DUMP" ~doc:"A flight dump (JSONL) written by the server or 'clara flight --dump'.")
  in
  let model =
    Arg.(required & opt (some dir) None
         & info [ "model" ] ~docv:"DIR" ~doc:"Model bundle to replay against (see 'clara train --save').")
  in
  let cache =
    Arg.(value & opt int 64 & info [ "cache" ] ~docv:"N" ~doc:"Replay server's flow-cache capacity.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the replay result as one JSON document.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Deterministically re-issue a flight dump against a bundle and byte-diff the \
             replies (modulo the volatile id/trace/cached/path fields); exits 1 on divergence")
    Term.(const run $ dump $ model $ cache $ json)

(* -- port -- *)

let port_cmd =
  let run name spec =
    let elt = find_nf name in
    let naive = Nicsim.Nic.port elt spec in
    let placement, placed = Clara.Placement.apply elt spec in
    let packs, _ = Clara.Coalesce.apply elt spec in
    let config =
      { Nicsim.Nic.accel_apis = []; placement = Some placement; packs }
    in
    let clara = Nicsim.Nic.port ~config elt spec in
    let show label p =
      let peak = Nicsim.Nic.peak p in
      Printf.printf "%-12s peak %.2f Mpps at %d cores, latency %.2f us\n" label
        peak.Nicsim.Multicore.throughput_mpps peak.Nicsim.Multicore.cores
        peak.Nicsim.Multicore.latency_us
    in
    show "naive:" naive;
    ignore placed;
    show "clara:" clara;
    List.iter
      (fun (s, l) -> Printf.printf "  place %s -> %s\n" s (Nicsim.Mem.level_name l))
      placement;
    List.iter (fun p -> Printf.printf "  pack {%s}\n" (String.concat ", " p)) packs
  in
  Cmd.v (Cmd.info "port" ~doc:"Measure naive vs Clara-configured ports on the simulated NIC")
    Term.(const run $ nf_arg $ workload_arg)

(* -- sweep -- *)

let sweep_cmd =
  let run name spec =
    let ported = Nicsim.Nic.port (find_nf name) spec in
    Util.Table.print ~header:[ "cores"; "Th (Mpps)"; "Lat (us)"; "Th/Lat" ]
      (List.filter_map
         (fun (p : Nicsim.Multicore.point) ->
           if p.Nicsim.Multicore.cores mod 4 = 0 || p.Nicsim.Multicore.cores = 1 then
             Some
               [ string_of_int p.Nicsim.Multicore.cores;
                 Printf.sprintf "%.2f" p.Nicsim.Multicore.throughput_mpps;
                 Printf.sprintf "%.2f" p.Nicsim.Multicore.latency_us;
                 Printf.sprintf "%.1f"
                   (p.Nicsim.Multicore.throughput_mpps /. max 1e-9 p.Nicsim.Multicore.latency_us) ]
           else None)
         (Nicsim.Nic.sweep ported));
    Printf.printf "knee (max Th/Lat): %d cores\n" (Nicsim.Nic.optimal_cores ported)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Core-count sweep for an NF under a workload")
    Term.(const run $ nf_arg $ workload_arg)

(* -- profile -- *)

let profile_cmd =
  let run name spec socket json =
    match name with
    | Some name ->
      (* NF-interpreter profile: run the element over a workload. *)
      let elt = find_nf name in
      let interp = Nf_lang.Interp.create ~mode:Nf_lang.State.Nic elt in
      let profile = Nf_lang.Interp.run interp (Workload.generate spec) in
      print_string (Nf_lang.Profile_report.render elt profile)
    | None -> (
      (* No NF named: fetch the continuous profiler of a running service
         and print the collapsed flamegraph text (or the JSON document). *)
      let j =
        request_or_exit ~socket
          ~what:"profile query failed (name an NF, or start 'clara serve --profile HZ')"
          (4, 10.0)
          [ ("cmd", Serve.Jsonl.Str "profile") ]
      in
      match Serve.Jsonl.str_member (if json then "profile" else "folded") j with
      | Some doc -> print_string doc
      | None ->
        Obs.Log.error
          ~fields:[ ("reply", Obs.Log.Str (Serve.Jsonl.to_string j)) ]
          "server did not return profiler state";
        exit 1)
  in
  let nf_opt =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"NF"
             ~doc:"Corpus element to profile (see 'clara list').  Without it, fetch the \
                   continuous profiler of a running service instead.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"With no NF: print the profiler's JSON document instead of collapsed \
                   flamegraph text.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile an NF over a workload, or fetch a running service's continuous-profiler \
             flamegraph")
    Term.(const run $ nf_opt $ workload_arg $ socket_arg $ json)

(* -- experiment -- *)

let experiment_cmd =
  let run ids =
    match ids with
    | [] | [ "all" ] -> Experiments.Registry.run_all ()
    | ids ->
      List.iter
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e.Experiments.Registry.run ()
          | None -> Printf.printf "unknown experiment: %s\n" id)
        ids
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (fig1..fig16, table1, table2) or 'all'.") in
  Cmd.v (Cmd.info "experiment" ~doc:"Run paper experiments") Term.(const run $ ids)

let () =
  (* Worker children re-exec this binary with a sentinel argv; in a
     worker this serves until shutdown and never returns. *)
  Router.Spawn.worker_main_if_requested ();
  let doc = "Clara: automated SmartNIC offloading insights (SOSP'21 reproduction)" in
  let info = Cmd.info "clara" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; train_cmd; analyze_cmd; serve_cmd; router_cmd; rollout_cmd;
            query_cmd; quality_cmd; flight_cmd; replay_cmd; port_cmd; sweep_cmd; profile_cmd;
            experiment_cmd ]))
