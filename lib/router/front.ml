(** The scale-out front (see front.mli). *)

module Jsonl = Serve.Jsonl
module Lineio = Serve.Lineio
module Proto = Serve.Proto

type worker = {
  w_index : int;  (* position in [t.workers] *)
  w_name : string;
  w_socket : string;
  mutable w_up : bool;
  mutable w_draining : bool;
  mutable w_version : string;
  mutable w_pid : int;
  w_conn : Lineio.conn;  (* health probes and rollout control, opened on first use *)
  mutable w_forwarded : int;
}

type rollout =
  | Idle
  | Canary of {
      bundle : string;
      version : string;
      fraction : float;
      seed : int;
      canaries : string list;
    }

(* One client connection's stream of forwarded lines to one worker,
   opened on the first line the client sends that worker.  The worker
   answers a connection's lines in order, so each reply fills the oldest
   slot still owed. *)
type upstream = {
  u_worker : worker;
  u_conn : Lineio.conn;
  u_owed : (Serve.Evloop.slot * string * float) Queue.t;  (* slot, request line, sent at *)
  mutable u_out : string list;  (* this round's lines to send, newest first *)
}

type t = {
  workers : worker array;  (* sorted by name; membership is fixed *)
  clients : (int, upstream option array) Hashtbl.t;  (* per client: one slot per worker *)
  vnodes : int;
  quota : Quota.t;
  forward_timeout_s : float;
  health_period_s : float;
  canary_seed : int;
  max_clients : int;
  mutable active_bundle : string option;
  mutable ring : Chash.t;  (* live, non-draining, non-canary workers *)
  mutable canary_ring : Chash.t;  (* live canaries during a rollout *)
  mutable rollout : rollout;
  mutable served_count : int;
  mutable forwarded_count : int;
  mutable conn_shed_count : int;
  mutable unavailable_count : int;
  mutable canary_count : int;
  mutable failover_count : int;
  mutable trace_counter : int;
  control : Serve.Evloop.control;  (* shutdown / drain flags *)
  healthz_cache : string Atomic.t;
}

type route = {
  rt_worker : string option;
  rt_canary : bool;
  rt_key : string;
  rt_tenant : string;
}

(* -- metrics (registered once per process) -- *)

let m_requests =
  Obs.Metrics.counter ~help:"Request lines entering the router" "clara_router_requests_total"

let m_forwarded =
  Obs.Metrics.counter ~help:"Request lines forwarded to workers" "clara_router_forwarded_total"

let m_quota_shed =
  Obs.Metrics.counter ~help:"Lines shed by per-tenant quotas" "clara_router_quota_shed_total"

let m_unavailable =
  Obs.Metrics.counter ~help:"Lines answered unavailable (worker died mid-request)"
    "clara_router_unavailable_total"

let m_canaried =
  Obs.Metrics.counter ~help:"Lines steered to canary workers" "clara_router_canaried_total"

let m_failovers =
  Obs.Metrics.counter ~help:"Worker up-to-down transitions" "clara_router_failovers_total"

let m_workers_up = Obs.Metrics.gauge ~help:"Workers currently up" "clara_router_workers_up"

(* -- construction -- *)

let canaries_of t = match t.rollout with Idle -> [] | Canary c -> c.canaries

let rebuild_rings t =
  let live =
    Array.to_list t.workers
    |> List.filter (fun w -> w.w_up && not w.w_draining)
    |> List.map (fun w -> w.w_name)
  in
  let canaries = canaries_of t in
  let mains, cans = List.partition (fun n -> not (List.mem n canaries)) live in
  t.ring <- Chash.create ~vnodes:t.vnodes mains;
  t.canary_ring <- Chash.create ~vnodes:t.vnodes cans;
  Obs.Metrics.set_gauge m_workers_up (float_of_int (List.length live))

let create ?(vnodes = 64) ?(tenant_quota = 0) ?(forward_timeout_s = 5.0)
    ?(health_period_s = 0.5) ?(canary_seed = 1) ?(max_clients = 64) ?active_bundle ~workers ()
    =
  if workers = [] then invalid_arg "Front.create: need at least one worker";
  (* A worker SIGKILLed mid-round turns the next pipelined write into a
     SIGPIPE; failover depends on seeing the EPIPE instead — ignore it
     here, not just in [run], so in-process harnesses calling
     [route_batch] directly survive worker kills too. *)
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let names = List.map fst workers in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Front.create: worker names must be unique";
  let workers =
    List.sort (fun (a, _) (b, _) -> String.compare a b) workers
    |> List.mapi (fun w_index (name, socket) ->
           (* Presumed up until a probe or a failed forward says otherwise:
              the ring must be well-defined before the first health sweep. *)
           { w_index; w_name = name; w_socket = socket; w_up = true; w_draining = false;
             w_version = "unknown"; w_pid = 0; w_conn = Lineio.conn ~socket_path:socket;
             w_forwarded = 0 })
    |> Array.of_list
  in
  let t =
    { workers; clients = Hashtbl.create 8; vnodes; quota = Quota.create ~limit:tenant_quota ();
      forward_timeout_s;
      health_period_s; canary_seed; max_clients; active_bundle;
      ring = Chash.create ~vnodes []; canary_ring = Chash.create ~vnodes [];
      rollout = Idle; served_count = 0; forwarded_count = 0; conn_shed_count = 0;
      unavailable_count = 0; canary_count = 0; failover_count = 0; trace_counter = 0;
      control = Serve.Evloop.control (); healthz_cache = Atomic.make "{}" }
  in
  rebuild_rings t;
  t

let fresh_trace t () =
  t.trace_counter <- t.trace_counter + 1;
  Printf.sprintf "r-%d" t.trace_counter

(* -- replies (laid out by [Serve.Proto], like the worker's) --

   Router-made error replies for forwarded lines echo the id/trace
   salvaged from the raw line, parsed or not. *)
let unavailable_reply t ~worker line =
  t.unavailable_count <- t.unavailable_count + 1;
  Obs.Metrics.inc m_unavailable;
  let id, trace = Proto.identity ~mint:(fresh_trace t) (Proto.salvage line) in
  Proto.error_reply ~unavailable:true ~extra:[ ("worker", Jsonl.Str worker) ] ~trace id
    (Printf.sprintf "worker %s unavailable; retry re-hashes to a live worker" worker)

let quota_reply t ~tenant line =
  Obs.Metrics.inc m_quota_shed;
  let id, trace = Proto.identity ~mint:(fresh_trace t) (Proto.salvage line) in
  Proto.error_reply ~overloaded:true ~extra:[ ("tenant", Jsonl.Str tenant) ] ~trace id
    (Printf.sprintf "overloaded: tenant %s over its %d-lines-per-round quota" tenant
       (Quota.limit t.quota))

(* -- worker connections -- *)

(* A failed call marks the worker down; the [Lineio] error
   already closed its connection, so the next send reconnects.  Returns
   the error's message. *)
let mark_down t w e =
  let why = Upstream.error_message e in
  if w.w_up then begin
    w.w_up <- false;
    t.failover_count <- t.failover_count + 1;
    Obs.Metrics.inc m_failovers;
    Obs.Log.warn
      ~fields:[ ("worker", Obs.Log.Str w.w_name); ("error", Obs.Log.Str why) ]
      "router.worker_down"
  end;
  why

(* One request/one reply over the persistent connection (rollout
   control and the health probe). *)
let worker_request t w ~timeout_s line =
  Result.map_error (mark_down t w) (Lineio.call w.w_conn ~timeout_s line)

(* -- health -- *)

let health_line = {|{"cmd":"health","id":"hc"}|}

let apply_health w reply =
  match Jsonl.of_string reply with
  | Error _ -> false
  | Ok j ->
    (match Jsonl.str_member "version" j with Some v -> w.w_version <- v | None -> ());
    (match Jsonl.member "draining" j with
    | Some (Jsonl.Bool b) -> w.w_draining <- b
    | _ -> ());
    (match Jsonl.num_member "pid" j with
    | Some p -> w.w_pid <- int_of_float p
    | None -> ());
    true

let healthz_fields t =
  let workers =
    Array.to_list t.workers
    |> List.map (fun w ->
           Jsonl.Obj
             [ ("name", Jsonl.Str w.w_name); ("socket", Jsonl.Str w.w_socket);
               ("up", Jsonl.Bool w.w_up); ("draining", Jsonl.Bool w.w_draining);
               ("version", Jsonl.Str w.w_version);
               ("pid", Jsonl.Num (float_of_int w.w_pid));
               ("forwarded", Jsonl.Num (float_of_int w.w_forwarded)) ])
  in
  let rollout =
    match t.rollout with
    | Idle -> Jsonl.Obj [ ("state", Jsonl.Str "idle") ]
    | Canary { bundle; version; fraction; seed; canaries } ->
      Jsonl.Obj
        [ ("state", Jsonl.Str "canary"); ("bundle", Jsonl.Str bundle);
          ("version", Jsonl.Str version); ("fraction", Jsonl.Num fraction);
          ("seed", Jsonl.Num (float_of_int seed));
          ("canaries", Jsonl.Arr (List.map (fun n -> Jsonl.Str n) canaries)) ]
  in
  let up = Array.fold_left (fun n w -> if w.w_up then n + 1 else n) 0 t.workers in
  [ ("role", Jsonl.Str "router");
    ("pid", Jsonl.Num (float_of_int (Unix.getpid ())));
    ("workers_up", Jsonl.Num (float_of_int up));
    ("served", Jsonl.Num (float_of_int t.served_count));
    ("forwarded", Jsonl.Num (float_of_int t.forwarded_count));
    ("shed", Jsonl.Num (float_of_int (Quota.shed t.quota + t.conn_shed_count)));
    ("unavailable", Jsonl.Num (float_of_int t.unavailable_count));
    ("canaried", Jsonl.Num (float_of_int t.canary_count));
    ("failovers", Jsonl.Num (float_of_int t.failover_count));
    ("tenant_quota", Jsonl.Num (float_of_int (Quota.limit t.quota)));
    ("rollout", rollout); ("workers", Jsonl.Arr workers) ]

let healthz_json t =
  let ok = Array.exists (fun w -> w.w_up) t.workers in
  Jsonl.to_string (Jsonl.Obj (("ok", Jsonl.Bool ok) :: healthz_fields t))

let refresh_healthz t = Atomic.set t.healthz_cache (healthz_json t)
let healthz_cached t = Atomic.get t.healthz_cache

let probe t =
  Array.iter
    (fun w ->
      let was_up = w.w_up in
      match worker_request t w ~timeout_s:t.forward_timeout_s health_line with
      | Ok reply when apply_health w reply && not was_up ->
        w.w_up <- true;
        Obs.Log.info ~fields:[ ("worker", Obs.Log.Str w.w_name) ] "router.worker_up"
      | Ok _ | Error _ -> ()  (* a failed request already marked it down *))
    t.workers;
  rebuild_rings t;
  refresh_healthz t

(* -- placement -- *)

(* The router-local commands, listed here and nowhere else. *)
type local = Health | Topology | Rollout | Promote | Rollback | Metrics | Reload | Shutdown

let local_of (r : Proto.request) =
  match r.cmd with
  | Some "health" -> Some Health
  | Some "topology" -> Some Topology
  | Some "rollout" -> Some Rollout
  | Some "promote" -> Some Promote
  | Some "rollback" -> Some Rollback
  | Some "metrics" -> Some Metrics
  | Some "reload" -> Some Reload
  | Some "shutdown" -> Some Shutdown
  | Some _ | None -> None

(* One parse and one decode per line, read by both {!target} and the
   batch path's [decide]; [None] for a line that does not parse. *)
let read line = Result.to_option (Result.map Proto.decode (Jsonl.of_string line))

let make_route t ~key ~tenant =
  let canary =
    match t.rollout with
    | Canary c -> Chash.canary_draw ~seed:c.seed key < c.fraction
    | Idle -> false
  in
  let primary, fallback =
    if canary then (t.canary_ring, t.ring) else (t.ring, t.canary_ring)
  in
  let worker =
    match Chash.lookup primary key with Some _ as w -> w | None -> Chash.lookup fallback key
  in
  { rt_worker = worker; rt_canary = canary; rt_key = key; rt_tenant = tenant }

(* The placement key is the worker's flow key for an [analyze] request
   (["nf|workload"], or an inline program's key and the workload), never
   its id or trace id, so one worker's flow cache warms per key.
   Anything else keys on the raw line: other commands, and the lines a
   worker answers with typed errors — malformed JSON, an undecodable
   program, an analyze naming no target. *)
let place t line (r : Proto.request) =
  let key =
    match r.target with
    | Nf { key; _ } | Program { key; _ } -> key
    | Bad_program _ | No_target -> line
  in
  make_route t ~key ~tenant:r.tenant

let target t line =
  match read line with
  | Some r when Option.is_some (local_of r) -> None
  | Some r -> Some (place t line r)
  | None -> Some (place t line (Proto.salvage line))

(* -- rollout control -- *)

let reload_line ~bundle ~expect =
  let fields =
    [ ("cmd", Jsonl.Str "reload"); ("bundle", Jsonl.Str bundle); ("id", Jsonl.Str "rollout") ]
  in
  let fields =
    match expect with None -> fields | Some v -> fields @ [ ("expect", Jsonl.Str v) ]
  in
  Jsonl.to_string (Jsonl.Obj fields)

(* Reloads wait longer than forwards: the worker loads a bundle and
   compiles its models before answering. *)
let reload_worker t w ~bundle ~expect =
  let timeout_s = Float.max 10.0 t.forward_timeout_s in
  match worker_request t w ~timeout_s (reload_line ~bundle ~expect) with
  | Error _ as e -> e
  | Ok reply -> (
    match Jsonl.of_string reply with
    | Error m -> Error ("unparseable reload reply: " ^ m)
    | Ok j -> (
      match Jsonl.member "ok" j with
      | Some (Jsonl.Bool true) ->
        (match Jsonl.str_member "version" j with Some v -> w.w_version <- v | None -> ());
        Ok ()
      | _ -> Error (Option.value (Jsonl.str_member "error" j) ~default:reply)))

let live_workers t =
  Array.to_list t.workers |> List.filter (fun w -> w.w_up && not w.w_draining)

let start_rollout t ~bundle ~fraction ?seed () =
  let seed = Option.value seed ~default:t.canary_seed in
  if t.rollout <> Idle then
    Error "a rollout is already in progress (promote or rollback first)"
  else if not (fraction > 0.0 && fraction <= 1.0) then Error "fraction must be in (0, 1]"
  else
    match Persist.Bundle.peek_version ~dir:bundle with
    | Error e ->
      Error (Printf.sprintf "cannot read bundle %s: %s" bundle (Persist.Wire.error_to_string e))
    | Ok version -> (
      match live_workers t with
      | [] -> Error "no live workers to canary"
      | live ->
        let n_live = List.length live in
        let n_can =
          if fraction >= 1.0 then n_live
          else
            (* keep at least one worker on the old version when we can *)
            max 1
              (min
                 (int_of_float (Float.ceil (fraction *. float_of_int n_live)))
                 (max 1 (n_live - 1)))
        in
        let chosen = List.filteri (fun i _ -> i < n_can) live in
        let rec reload_all done_ = function
          | [] -> Ok ()
          | w :: rest -> (
            match reload_worker t w ~bundle ~expect:(Some version) with
            | Ok () -> reload_all (w :: done_) rest
            | Error e ->
              (* Undo the half-rolled canaries so the fleet stays on one
                 version; best effort — a worker that just died stays
                 down and reloads on re-admission anyway. *)
              (match t.active_bundle with
              | Some old ->
                List.iter (fun w -> ignore (reload_worker t w ~bundle:old ~expect:None)) done_
              | None -> ());
              Error (Printf.sprintf "canary reload failed on %s: %s" w.w_name e))
        in
        (match reload_all [] chosen with
        | Error _ as e ->
          rebuild_rings t;
          refresh_healthz t;
          e
        | Ok () ->
          t.rollout <-
            Canary
              { bundle; version; fraction; seed;
                canaries = List.map (fun w -> w.w_name) chosen };
          rebuild_rings t;
          refresh_healthz t;
          Obs.Log.info
            ~fields:
              [ ("bundle", Obs.Log.Str bundle); ("version", Obs.Log.Str version);
                ("fraction", Obs.Log.Num fraction); ("canaries", Obs.Log.Int n_can) ]
            "router.rollout_start";
          Ok version))

let promote t =
  match t.rollout with
  | Idle -> Error "no rollout in progress"
  | Canary { bundle; version; canaries; _ } ->
    let failed = ref [] in
    Array.iter
      (fun w ->
        if not (List.mem w.w_name canaries) then
          if not w.w_up then failed := w.w_name :: !failed
          else
            match reload_worker t w ~bundle ~expect:(Some version) with
            | Ok () -> ()
            | Error _ -> failed := w.w_name :: !failed)
      t.workers;
    t.active_bundle <- Some bundle;
    t.rollout <- Idle;
    rebuild_rings t;
    refresh_healthz t;
    Obs.Log.info
      ~fields:
        [ ("version", Obs.Log.Str version); ("failed", Obs.Log.Int (List.length !failed)) ]
      "router.promote";
    Ok (version, List.rev !failed)

let rollback t =
  match t.rollout with
  | Idle -> Error "no rollout in progress"
  | Canary { canaries; _ } -> (
    match t.active_bundle with
    | None -> Error "no active bundle recorded (router started without one); cannot rollback"
    | Some old ->
      let expect =
        match Persist.Bundle.peek_version ~dir:old with Ok v -> Some v | Error _ -> None
      in
      let failed = ref [] in
      Array.iter
        (fun w ->
          if List.mem w.w_name canaries then
            if not w.w_up then failed := w.w_name :: !failed
            else
              match reload_worker t w ~bundle:old ~expect with
              | Ok () -> ()
              | Error _ -> failed := w.w_name :: !failed)
        t.workers;
      t.rollout <- Idle;
      rebuild_rings t;
      refresh_healthz t;
      Obs.Log.info
        ~fields:[ ("bundle", Obs.Log.Str old); ("failed", Obs.Log.Int (List.length !failed)) ]
        "router.rollback";
      Ok (List.rev !failed))

(* -- router-local commands -- *)

let topology_reply t ~trace id =
  Proto.ok_reply ~trace id
    [ ("ring", Jsonl.Arr (List.map (fun n -> Jsonl.Str n) (Chash.members t.ring)));
      ("canary_ring",
       Jsonl.Arr (List.map (fun n -> Jsonl.Str n) (Chash.members t.canary_ring)));
      ("vnodes", Jsonl.Num (float_of_int t.vnodes)) ]

let rollout_reply t ~trace id req =
  match Jsonl.str_member "bundle" req with
  | None -> Proto.error_reply ~trace id "rollout wants \"bundle\" (a model-bundle directory)"
  | Some bundle -> (
    let fraction = Option.value (Jsonl.num_member "fraction" req) ~default:0.1 in
    let seed = Option.map int_of_float (Jsonl.num_member "seed" req) in
    match start_rollout t ~bundle ~fraction ?seed () with
    | Error msg -> Proto.error_reply ~trace id msg
    | Ok version ->
      Proto.ok_reply ~trace id
        [ ("rollout", Jsonl.Str "canary"); ("version", Jsonl.Str version);
          ("fraction", Jsonl.Num fraction);
          ("canaries",
           Jsonl.Arr (List.map (fun n -> Jsonl.Str n) (canaries_of t))) ])

let promote_reply t ~trace id =
  match promote t with
  | Error msg -> Proto.error_reply ~trace id msg
  | Ok (version, failed) ->
    Proto.ok_reply ~trace id
      [ ("promoted", Jsonl.Bool true); ("version", Jsonl.Str version);
        ("failed", Jsonl.Arr (List.map (fun n -> Jsonl.Str n) failed)) ]

let rollback_reply t ~trace id =
  match rollback t with
  | Error msg -> Proto.error_reply ~trace id msg
  | Ok failed ->
    Proto.ok_reply ~trace id
      [ ("rolled_back", Jsonl.Bool true);
        ("failed", Jsonl.Arr (List.map (fun n -> Jsonl.Str n) failed)) ]

let shutdown_reply t ~trace id =
  let line = {|{"cmd":"shutdown","id":"rollout"}|} in
  Array.iter
    (fun w -> if w.w_up then ignore (worker_request t w ~timeout_s:1.0 line))
    t.workers;
  Serve.Evloop.request_stop t.control;
  Proto.ok_reply ~trace id [ ("stopping", Jsonl.Bool true) ]

type decision = Local of string | Forward of route

let decide t line =
  match read line with
  | None -> Forward (place t line (Proto.salvage line))
  | Some r -> (
    match local_of r with
    | None -> Forward (place t line r)
    | Some local -> (
      (* Only a reply the router writes itself needs a trace id: a
         forwarded line takes the worker's. *)
      let id, trace = Proto.identity ~mint:(fresh_trace t) r in
      match local with
      | Health -> Local (Proto.ok_reply ~trace id (healthz_fields t))
      | Topology -> Local (topology_reply t ~trace id)
      | Rollout -> Local (rollout_reply t ~trace id r.req)
      | Promote -> Local (promote_reply t ~trace id)
      | Rollback -> Local (rollback_reply t ~trace id)
      | Metrics ->
        Local (Proto.ok_reply ~trace id [ ("metrics", Jsonl.Str (Obs.Metrics.exposition ())) ])
      | Reload ->
        Local
          (Proto.error_reply ~trace id
             "reload is worker-scoped; drive fleet versions with rollout/promote/rollback")
      | Shutdown -> Local (shutdown_reply t ~trace id)))

(* -- relaying: the completion contract --

   A round's lines are decided in order.  A line the router answers
   itself fills its slot at once; a forwarded line joins its client's
   upstream to the line's worker and fills its slot when that worker's
   reply arrives, whatever the other workers and clients are doing.
   Each upstream's lines of a round go out in one write. *)

let upstream t client w =
  let row =
    match Hashtbl.find_opt t.clients client with
    | Some row -> row
    | None ->
      let row = Array.make (Array.length t.workers) None in
      Hashtbl.replace t.clients client row;
      row
  in
  match row.(w.w_index) with
  | Some u -> u
  | None ->
    let u =
      { u_worker = w; u_conn = Lineio.conn ~socket_path:w.w_socket; u_owed = Queue.create ();
        u_out = [] }
    in
    row.(w.w_index) <- Some u;
    u

let iter_upstreams t f = Hashtbl.iter (fun _ row -> Array.iter (Option.iter f) row) t.clients

(* A worker that failed an upstream — connect, write, EOF, or a reply
   later than [forward_timeout_s] — is marked down, and every line the
   upstream owes is answered unavailable (typed retryable: the retry
   re-hashes over the survivors). *)
let fail_upstream t u e =
  Lineio.close u.u_conn;
  u.u_out <- [];
  ignore (mark_down t u.u_worker e);
  let owed = Queue.create () in
  Queue.transfer u.u_owed owed;
  Queue.iter
    (fun (slot, line, _) ->
      Serve.Evloop.fill slot (unavailable_reply t ~worker:u.u_worker.w_name line))
    owed;
  rebuild_rings t;
  refresh_healthz t

let route t batches =
  Quota.begin_round t.quota;
  let now = Obs.Clock.now_s () in
  let sending = ref [] in
  let decide_line client line =
    t.served_count <- t.served_count + 1;
    Obs.Metrics.inc m_requests;
    match decide t line with
    | Local reply -> Serve.Evloop.filled reply
    | Forward { rt_worker = None; _ } ->
      Serve.Evloop.filled (unavailable_reply t ~worker:"none" line)
    | Forward { rt_worker = Some name; rt_canary; rt_tenant; _ } ->
      if not (Quota.admit t.quota ~tenant:rt_tenant) then
        Serve.Evloop.filled (quota_reply t ~tenant:rt_tenant line)
      else begin
        if rt_canary then begin
          t.canary_count <- t.canary_count + 1;
          Obs.Metrics.inc m_canaried
        end;
        let w = Option.get (Array.find_opt (fun w -> w.w_name = name) t.workers) in
        let u = upstream t client w in
        if u.u_out = [] then sending := u :: !sending;
        u.u_out <- line :: u.u_out;
        let slot = Serve.Evloop.slot () in
        Queue.push (slot, line, now) u.u_owed;
        slot
      end
  in
  let slots =
    List.concat_map (fun (client, lines) -> List.map (decide_line client) lines) batches
  in
  List.iter
    (fun u ->
      let lines = List.rev u.u_out in
      u.u_out <- [];
      match Lineio.send u.u_conn lines with Ok () -> () | Error e -> fail_upstream t u e)
    (List.rev !sending);
  slots

(* Upstreams owing replies: the fds the loop waits on. *)
let watch t =
  let fds = ref [] in
  iter_upstreams t (fun u ->
      if not (Queue.is_empty u.u_owed) then
        Option.iter (fun fd -> fds := fd :: !fds) (Lineio.fd u.u_conn));
  !fds

(* Relay what the [ready] upstreams sent, then fail every upstream whose
   oldest owed line outwaited [forward_timeout_s]. *)
let relay t ready =
  iter_upstreams t (fun u ->
      match Lineio.fd u.u_conn with
      | Some fd when List.memq fd ready -> (
        let w = u.u_worker in
        let got reply =
          match Queue.take_opt u.u_owed with
          | Some (slot, _, _) ->
            w.w_forwarded <- w.w_forwarded + 1;
            t.forwarded_count <- t.forwarded_count + 1;
            Obs.Metrics.inc m_forwarded;
            Serve.Evloop.fill slot reply
          | None -> ()
        in
        match Lineio.read_ready u.u_conn got with Ok () -> () | Error e -> fail_upstream t u e)
      | Some _ | None -> ());
  let now = Obs.Clock.now_s () in
  iter_upstreams t (fun u ->
      match Queue.peek_opt u.u_owed with
      | Some (_, _, sent) when now -. sent > t.forward_timeout_s ->
        fail_upstream t u Lineio.Timeout
      | Some _ | None -> ())

let drop_client t client =
  match Hashtbl.find_opt t.clients client with
  | None -> ()
  | Some row ->
    Array.iter (Option.iter (fun u -> Lineio.close u.u_conn)) row;
    Hashtbl.remove t.clients client

(* The in-process harness entry: a client of its own, driven until every
   line is answered. *)
let batch_client = -1

let route_batch t lines =
  let slots = route t [ (batch_client, lines) ] in
  let answered s = Option.is_some (Serve.Evloop.reply s) in
  while not (List.for_all answered slots) do
    let ready =
      match Unix.select (watch t) [] [] 0.05 with
      | ready, _, _ -> ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    relay t ready
  done;
  List.map (fun s -> Option.get (Serve.Evloop.reply s)) slots

(* -- counters -- *)

let served t = t.served_count
let forwarded t = t.forwarded_count
let shed t = Quota.shed t.quota + t.conn_shed_count
let unavailable t = t.unavailable_count
let failovers t = t.failover_count
let request_drain t = Serve.Evloop.request_drain t.control
let close t =
  Array.iter (fun w -> Lineio.close w.w_conn) t.workers;
  List.iter (drop_client t) (Hashtbl.fold (fun client _ acc -> client :: acc) t.clients [])

(* -- the socket service -- *)

let run t ~socket_path =
  probe t;
  Obs.Log.info
    ~fields:
      [ ("socket", Obs.Log.Str socket_path);
        ("workers", Obs.Log.Int (Array.length t.workers));
        ("vnodes", Obs.Log.Int t.vnodes);
        ("tenant_quota", Obs.Log.Int (Quota.limit t.quota));
        ("health_period_s", Obs.Log.Num t.health_period_s);
        ("max_clients", Obs.Log.Int t.max_clients) ]
    "router.start";
  let next_health = ref (Obs.Clock.now_s () +. t.health_period_s) in
  let on_tick () =
    if Obs.Clock.now_s () >= !next_health then begin
      probe t;
      next_health := Obs.Clock.now_s () +. t.health_period_s
    end
  in
  let io_fields ~fn err =
    [ ("fn", Obs.Log.Str fn); ("error", Obs.Log.Str (Unix.error_message err)) ]
  in
  let handler =
    { Serve.Evloop.handle_batch = route t;
      watch = (fun () -> watch t);
      service =
        (fun ready ->
          relay t ready;
          false);
      on_close = drop_client t;
      on_tick }
  in
  Serve.Evloop.run ~name:"router" ~socket_path ~max_clients:t.max_clients ~control:t.control
    ~handler
    ~reject:(fun () ->
      t.conn_shed_count <- t.conn_shed_count + 1;
      Proto.error_reply ~overloaded:true ~trace:(fresh_trace t ()) Jsonl.Null
        (Printf.sprintf "overloaded: router at its %d-connection limit" t.max_clients))
    ~on_disconnect:(fun ~fn err ->
      Obs.Log.info ~fields:(io_fields ~fn err) "router.client_disconnected")
    ~on_error:(fun ~ctx ~fn err -> Obs.Log.warn ~fields:(io_fields ~fn err) ctx);
  close t;
  Obs.Log.info
    ~fields:
      [ ("served", Obs.Log.Int t.served_count);
        ("forwarded", Obs.Log.Int t.forwarded_count);
        ("unavailable", Obs.Log.Int t.unavailable_count);
        ("failovers", Obs.Log.Int t.failover_count);
        ("drained", Obs.Log.Bool (Serve.Evloop.draining t.control)) ]
    "router.stop"
