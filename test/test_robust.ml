(** Adversarial tests for the hardened service: the Obs.Fault registry
    itself, fuzzed Jsonl parsing, deadlines, load shedding, fault-injected
    analyses, client-disconnect handling, graceful drain, and the retrying
    {!Serve.Client} against misbehaving stub servers.  Connection-limit
    shedding and drain run through the real serving loop of both the
    server and the router.

    Runs (via dune rules) under both CLARA_JOBS=1 and CLARA_JOBS=4: every
    outcome here must be identical in both ambient modes. *)

let with_jobs n f =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) f

(* Every test that arms a fault point must disarm on every exit path, or
   it would poison the rest of the binary. *)
let with_fault ~point ~prob ?(seed = 1) f =
  Obs.Fault.set ~point ~prob ~seed;
  Fun.protect ~finally:(fun () -> Obs.Fault.remove point) f

(* -- Obs.Fault: the registry itself -- *)

let test_fault_parse () =
  Alcotest.(check bool) "point:prob" true
    (Obs.Fault.parse "persist.read:0.5" = Ok [ ("persist.read", 0.5, 1) ]);
  Alcotest.(check bool) "point:prob:seed" true
    (Obs.Fault.parse "pool.task:1.0:42" = Ok [ ("pool.task", 1.0, 42) ]);
  Alcotest.(check bool) "comma-separated list" true
    (Obs.Fault.parse "a:0:7,b:1" = Ok [ ("a", 0.0, 7); ("b", 1.0, 1) ]);
  Alcotest.(check bool) "empty spec is empty" true (Obs.Fault.parse "" = Ok []);
  List.iter
    (fun bad ->
      match Obs.Fault.parse bad with
      | Error _ -> ()
      | Ok l ->
        Alcotest.failf "%S should not parse (got %d points)" bad (List.length l))
    [ "a"; "a:nope"; "a:1.5"; "a:-0.1"; "a:0.5:xyz"; "a:0.5:1:2" ]

let test_fault_determinism () =
  let sequence () =
    with_fault ~point:"t.det" ~prob:0.3 ~seed:99 (fun () ->
        List.init 200 (fun k -> Obs.Fault.fire ~k "t.det"))
  in
  let a = sequence () and b = sequence () in
  Alcotest.(check bool) "same seed replays the same decisions" true (a = b);
  Alcotest.(check bool) "prob 0.3 fires sometimes" true (List.mem true a);
  Alcotest.(check bool) "prob 0.3 spares sometimes" true (List.mem false a);
  (* keyed draws are order-independent: the same keys asked in reverse
     give the same per-key answers *)
  let forward =
    with_fault ~point:"t.order" ~prob:0.5 ~seed:7 (fun () ->
        List.init 50 (fun k -> Obs.Fault.fire ~k "t.order"))
  in
  let backward =
    with_fault ~point:"t.order" ~prob:0.5 ~seed:7 (fun () ->
        List.rev (List.rev_map (fun k -> Obs.Fault.fire ~k "t.order") (List.init 50 Fun.id)))
  in
  Alcotest.(check bool) "keyed draws ignore ask order" true (forward = backward);
  (* a different seed gives a different sequence *)
  let other =
    with_fault ~point:"t.det" ~prob:0.3 ~seed:100 (fun () ->
        List.init 200 (fun k -> Obs.Fault.fire ~k "t.det"))
  in
  Alcotest.(check bool) "different seed, different decisions" true (a <> other)

let test_fault_edges () =
  with_fault ~point:"t.never" ~prob:0.0 (fun () ->
      Alcotest.(check bool) "prob 0 never fires" false
        (List.exists (fun k -> Obs.Fault.fire ~k "t.never") (List.init 100 Fun.id));
      Alcotest.(check int) "prob 0 counts no hits" 0 (Obs.Fault.fired "t.never"));
  with_fault ~point:"t.always" ~prob:1.0 (fun () ->
      Alcotest.(check bool) "prob 1 always fires" true
        (List.for_all (fun k -> Obs.Fault.fire ~k "t.always") (List.init 100 Fun.id));
      Alcotest.(check int) "prob 1 counts every hit" 100 (Obs.Fault.fired "t.always");
      (match Obs.Fault.guard "t.always" with
      | () -> Alcotest.fail "guard on an armed point must raise"
      | exception Obs.Fault.Injected "t.always" -> ());
      Alcotest.(check bool) "armed point listed" true
        (List.mem ("t.always", 1.0, 1) (Obs.Fault.active ())));
  Alcotest.(check bool) "disarmed point never fires" false (Obs.Fault.fire "t.always");
  Alcotest.(check bool) "unkeyed draws advance" true
    (with_fault ~point:"t.seq" ~prob:0.5 ~seed:3 (fun () ->
         let draws = List.init 100 (fun _ -> Obs.Fault.fire "t.seq") in
         List.mem true draws && List.mem false draws))

(* -- Jsonl fuzzing: the parser must never raise, and salvage_member must
   agree with the full parse on valid inputs -- *)

let rec gen_value rng depth =
  match if depth = 0 then Random.State.int rng 4 else Random.State.int rng 6 with
  | 0 -> Serve.Jsonl.Null
  | 1 -> Serve.Jsonl.Bool (Random.State.bool rng)
  | 2 ->
    (* finite, round-trippable magnitudes *)
    Serve.Jsonl.Num
      (Float.of_int (Random.State.int rng 2_000_001 - 1_000_000)
      /. Float.of_int (1 + Random.State.int rng 1000))
  | 3 ->
    let n = Random.State.int rng 12 in
    let alphabet = "ab\"\\/{}[]:,\t\n\x01 éπ0" in
    Serve.Jsonl.Str
      (String.init n (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)]))
  | 4 -> Serve.Jsonl.Arr (List.init (Random.State.int rng 4) (fun _ -> gen_value rng (depth - 1)))
  | _ ->
    Serve.Jsonl.Obj
      (List.init (Random.State.int rng 4) (fun i ->
           (Printf.sprintf "k%d" i, gen_value rng (depth - 1))))

let mutate rng s =
  if s = "" then "x"
  else
    match Random.State.int rng 3 with
    | 0 -> String.sub s 0 (Random.State.int rng (String.length s)) (* truncate *)
    | 1 ->
      let i = Random.State.int rng (String.length s) in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Random.State.int rng 256));
      Bytes.to_string b
    | _ ->
      let i = Random.State.int rng (String.length s + 1) in
      String.sub s 0 i ^ "\x00{\"" ^ String.sub s i (String.length s - i)

let test_jsonl_fuzz () =
  let rng = Random.State.make [| 0x5EED |] in
  for _ = 1 to 500 do
    let v = gen_value rng 3 in
    let printed = Serve.Jsonl.to_string v in
    (* valid input parses back to the same value *)
    (match Serve.Jsonl.of_string printed with
    | Ok v' ->
      if v' <> v then Alcotest.failf "%S did not round-trip" printed
    | Error msg -> Alcotest.failf "%S failed to reparse: %s" printed msg
    | exception e ->
      Alcotest.failf "parser raised %s on valid %S" (Printexc.to_string e) printed);
    (* mutated input may fail, but only as [Error] *)
    let mutant = mutate rng printed in
    (match Serve.Jsonl.of_string mutant with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "parser raised %s on mutant %S" (Printexc.to_string e) mutant);
    match Serve.Jsonl.salvage_member "id" mutant with
    | Some _ | None -> ()
    | exception e ->
      Alcotest.failf "salvage raised %s on mutant %S" (Printexc.to_string e) mutant
  done

let test_salvage_agrees_on_valid () =
  let rng = Random.State.make [| 0xA6EE |] in
  let scalar rng =
    match Random.State.int rng 4 with
    | 0 -> Serve.Jsonl.Null
    | 1 -> Serve.Jsonl.Bool (Random.State.bool rng)
    | 2 -> Serve.Jsonl.Num (Float.of_int (Random.State.int rng 10_000))
    | _ -> Serve.Jsonl.Str (Printf.sprintf "req-%d" (Random.State.int rng 1000))
  in
  for _ = 1 to 300 do
    let id = scalar rng in
    let decoys =
      List.init (Random.State.int rng 3) (fun i ->
          (Printf.sprintf "d%d" i, gen_value rng 2))
    in
    let line = Serve.Jsonl.to_string (Serve.Jsonl.Obj (decoys @ [ ("id", id) ])) in
    let full =
      match Serve.Jsonl.of_string line with
      | Ok v -> Serve.Jsonl.member "id" v
      | Error msg -> Alcotest.failf "%S should parse: %s" line msg
    in
    let salvaged = Serve.Jsonl.salvage_member "id" line in
    if salvaged <> full then
      Alcotest.failf "salvage disagrees with full parse on %S" line
  done

(* -- server under injected faults / deadlines / overload (tiny models,
   in-process) -- *)

let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let parse_reply line =
  match Serve.Jsonl.of_string line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg

let is_ok reply = Serve.Jsonl.member "ok" reply = Some (Serve.Jsonl.Bool true)
let flag name reply = Serve.Jsonl.member name reply = Some (Serve.Jsonl.Bool true)

let test_pool_fault_typed_reply () =
  let s = Serve.Server.create ~cache_capacity:8 (Lazy.force models) in
  let q = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} in
  let faulted =
    with_fault ~point:"pool.task" ~prob:1.0 (fun () ->
        parse_reply (Serve.Server.handle_request s q))
  in
  Alcotest.(check bool) "injected analysis fails" false (is_ok faulted);
  (match Serve.Jsonl.str_member "error" faulted with
  | Some msg ->
    Alcotest.(check bool) "error names the injected fault" true
      (String.length msg > 0
      && (let has_sub sub =
            let n = String.length msg and m = String.length sub in
            let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
            go 0
          in
          has_sub "pool.task"))
  | None -> Alcotest.fail "faulted reply carries an error");
  Alcotest.(check bool) "id still echoed" true
    (Serve.Jsonl.member "id" faulted = Some (Serve.Jsonl.Num 1.0));
  (* once the fault clears, the same request succeeds (nothing was cached) *)
  let healed = parse_reply (Serve.Server.handle_request s q) in
  Alcotest.(check bool) "recovers after the fault clears" true (is_ok healed);
  Alcotest.(check bool) "failed analysis was not cached" true
    (Serve.Jsonl.member "cached" healed = Some (Serve.Jsonl.Bool false))

(* The same faulty batch must produce the same per-request outcomes
   whether the pool runs serial or on four domains: decisions are keyed
   by task index, and the pool re-raises the lowest-indexed failure. *)
let test_pool_fault_outcomes_jobs_independent () =
  let batch =
    [ {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|};
      {|{"id":2,"cmd":"analyze","nf":"udpipencap","workload":"mixed"}|};
      {|{"id":3,"cmd":"analyze","nf":"anonipaddr","workload":"mixed"}|};
      {|{"id":4,"cmd":"analyze","nf":"cmsketch","workload":"mixed"}|} ]
  in
  let outcomes jobs =
    with_jobs jobs (fun () ->
        with_fault ~point:"pool.task" ~prob:0.5 ~seed:11 (fun () ->
            let s = Serve.Server.create ~cache_capacity:8 (Lazy.force models) in
            List.map (fun r -> is_ok (parse_reply r)) (Serve.Server.process_batch s batch)))
  in
  let serial = outcomes 1 and parallel = outcomes 4 in
  Alcotest.(check bool) "serial and 4-domain outcomes identical" true (serial = parallel);
  Alcotest.(check bool) "prob 0.5 failed at least one" true (List.mem false serial)

let test_jsonl_fault_typed_reply () =
  let s = Serve.Server.create ~cache_capacity:8 (Lazy.force models) in
  let raw =
    with_fault ~point:"jsonl.parse" ~prob:1.0 (fun () ->
        Serve.Server.handle_request s {|{"id":9,"cmd":"ping"}|})
  in
  (* parse the reply only after the fault is disarmed *)
  let reply = parse_reply raw in
  Alcotest.(check bool) "parse fault becomes an error reply" false (is_ok reply);
  Alcotest.(check bool) "id salvaged around the broken parser" true
    (Serve.Jsonl.member "id" reply = Some (Serve.Jsonl.Num 9.0))

let test_deadline_exceeded () =
  (* a 1ns default budget is always already spent by planning time *)
  let s = Serve.Server.create ~cache_capacity:8 ~deadline_ms:0.000001 (Lazy.force models) in
  let r =
    parse_reply (Serve.Server.handle_request s {|{"id":1,"cmd":"analyze","nf":"tcpack"}|})
  in
  Alcotest.(check bool) "expired budget rejected" false (is_ok r);
  Alcotest.(check bool) "flagged deadline_exceeded" true (flag "deadline_exceeded" r);
  Alcotest.(check bool) "not flagged overloaded" false (flag "overloaded" r);
  (* a request-level budget overrides the server default *)
  let roomy =
    parse_reply
      (Serve.Server.handle_request s
         {|{"id":2,"cmd":"analyze","nf":"tcpack","deadline_ms":60000}|})
  in
  Alcotest.(check bool) "request budget overrides default" true (is_ok roomy);
  (* an explicit 0 disables the default entirely *)
  let unlimited =
    parse_reply
      (Serve.Server.handle_request s
         {|{"id":3,"cmd":"analyze","nf":"udpipencap","deadline_ms":0}|})
  in
  Alcotest.(check bool) "deadline_ms 0 means unlimited" true (is_ok unlimited);
  (* non-analyze commands never consult the deadline *)
  let pong = parse_reply (Serve.Server.handle_request s {|{"id":4,"cmd":"ping"}|}) in
  Alcotest.(check bool) "ping ignores the budget" true (is_ok pong)

let test_shedding_beyond_max_pending () =
  let s = Serve.Server.create ~cache_capacity:8 ~max_pending:2 (Lazy.force models) in
  let lines = List.init 5 (fun i -> Printf.sprintf {|{"id":%d,"cmd":"ping"}|} (i + 1)) in
  let replies = List.map parse_reply (Serve.Server.process_batch s lines) in
  Alcotest.(check int) "one reply per line" 5 (List.length replies);
  List.iteri
    (fun i r ->
      let id_ok = Serve.Jsonl.member "id" r = Some (Serve.Jsonl.Num (float_of_int (i + 1))) in
      Alcotest.(check bool) (Printf.sprintf "reply %d keeps its id" (i + 1)) true id_ok;
      if i < 2 then
        Alcotest.(check bool) (Printf.sprintf "admitted %d ok" (i + 1)) true (is_ok r)
      else begin
        Alcotest.(check bool) (Printf.sprintf "overflow %d rejected" (i + 1)) false (is_ok r);
        Alcotest.(check bool) (Printf.sprintf "overflow %d flagged" (i + 1)) true
          (flag "overloaded" r)
      end)
    replies;
  Alcotest.(check int) "shed counter" 3 (Serve.Server.shed s);
  Alcotest.(check int) "every line counted as served" 5 (Serve.Server.served s)

(* -- the real serving loop: both callers of Serve.Evloop.run -- *)

let connect_with_retry path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go attempts =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
      Unix.sleepf 0.05;
      go (attempts - 1)
  in
  go 100

let client_round path request =
  let fd = connect_with_retry path in
  let out = Unix.out_channel_of_descr fd in
  output_string out (request ^ "\n");
  flush out;
  let line = input_line (Unix.in_channel_of_descr fd) in
  Unix.close fd;
  line

let write_line fd s =
  let s = s ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s))

let fresh_socket_path tag =
  let path = Filename.temp_file tag ".sock" in
  Sys.remove path;
  path

(* A stand-in worker: serves every connection the router opens (its
   health probe's, and one per router client that sends it a line),
   answering every request line with a healthy [health] reply.  [stop]
   asks it to return once every connection it accepted has hung up;
   joining it says whether that happened within 10s — the router closed
   every worker connection it opened. *)
let stub_worker path =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let buf = Bytes.create 4096 in
        let deadline = ref infinity in
        let rec serve conns =
          if Atomic.get stop && !deadline = infinity then deadline := Unix.gettimeofday () +. 10.0;
          if Atomic.get stop && conns = [] then true
          else if Unix.gettimeofday () > !deadline then false
          else
            match Unix.select (listener :: conns) [] [] 0.05 with
            | ready, _, _ ->
              let accepted =
                if List.memq listener ready then [ fst (Unix.accept listener) ] else []
              in
              let open_ =
                List.filter
                  (fun fd ->
                    (not (List.memq fd ready))
                    ||
                    match Unix.read fd buf 0 (Bytes.length buf) with
                    | 0 | (exception Unix.Unix_error _) ->
                      Unix.close fd;
                      false
                    | n ->
                      for i = 0 to n - 1 do
                        if Bytes.get buf i = '\n' then
                          try
                            write_line fd
                              {|{"id":"hc","ok":true,"version":"stub","draining":false,"pid":1}|}
                          with Unix.Unix_error _ -> ()
                      done;
                      true)
                  conns
              in
              serve (accepted @ open_)
        in
        let all_closed = serve [] in
        Unix.close listener;
        (try Sys.remove path with Sys_error _ -> ());
        all_closed)
  in
  (stop, d)

(* What a case needs of a serving process, so one body covers both
   [Serve.Server.run] and [Router.Front.run].  [finish] runs after [run]
   has returned and checks what the process had to release. *)
type frontend = {
  run : socket_path:string -> unit;
  request_drain : unit -> unit;
  shed : unit -> int;
  finish : unit -> unit;
}

let server_frontend ?max_clients () =
  let s = Serve.Server.create ~cache_capacity:8 ?max_clients (Lazy.force models) in
  { run = Serve.Server.run s;
    request_drain = (fun () -> Serve.Server.request_drain s);
    shed = (fun () -> Serve.Server.shed s);
    finish = ignore }

(* A one-worker router over [stub_worker]; its startup probe and its
   clients' forwarded lines open the worker connections that [finish]
   checks were all closed. *)
let router_frontend ?max_clients () =
  let worker_path = fresh_socket_path "clara_robust_worker" in
  let stop, worker = stub_worker worker_path in
  let f = Router.Front.create ?max_clients ~workers:[ ("w0", worker_path) ] () in
  { run = Router.Front.run f;
    request_drain = (fun () -> Router.Front.request_drain f);
    shed = (fun () -> Router.Front.shed f);
    finish =
      (fun () ->
        Atomic.set stop true;
        Alcotest.(check bool) "router closed every worker connection" true (Domain.join worker)) }

(* Run [fe] in its own domain for the duration of [body path]; a drain
   stops it. *)
let with_running fe body =
  let path = fresh_socket_path "clara_robust_loop" in
  let loop = Domain.spawn (fun () -> fe.run ~socket_path:path) in
  Fun.protect ~finally:(fun () ->
      fe.request_drain ();
      Domain.join loop)
    (fun () -> body path);
  fe.finish ()

(* A client that vanishes mid-reply (EPIPE) is logged at info — not warn,
   not error — and does not count as a server error.  The injected
   serve.write fault makes the loop's own flush see the EPIPE. *)
let test_disconnect_logged_at_info () =
  let captured = ref [] in
  Obs.Log.set_sink (Obs.Log.Custom (fun line -> captured := line :: !captured));
  Fun.protect ~finally:(fun () -> Obs.Log.set_sink Obs.Log.Stderr) @@ fun () ->
  let errors_before =
    Obs.Metrics.counter_value (Obs.Metrics.counter "clara_serve_errors_total")
  in
  with_fault ~point:"serve.write" ~prob:1.0 (fun () ->
      with_running (server_frontend ()) (fun path ->
          let fd = connect_with_retry path in
          write_line fd {|{"id":1,"cmd":"ping"}|};
          (* the failed flush drops the connection: the client sees EOF *)
          (match input_line (Unix.in_channel_of_descr fd) with
          | line -> Alcotest.failf "no reply can get past the fault, got %s" line
          | exception End_of_file -> ());
          Unix.close fd));
  let has_sub sub line =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  let disconnect_lines = List.filter (has_sub "serve.client_disconnected") !captured in
  Alcotest.(check bool) "disconnect logged" true (disconnect_lines <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool) "logged at info" true (has_sub {|"level":"info"|} line))
    disconnect_lines;
  let errors_after =
    Obs.Metrics.counter_value (Obs.Metrics.counter "clara_serve_errors_total")
  in
  Alcotest.(check (float 0.0)) "no server-error metric for a disconnect" errors_before
    errors_after

(* A connection beyond max_clients gets exactly one overloaded line, then
   EOF, and counts as one shed. *)
let test_connection_limit_shed (make : ?max_clients:int -> unit -> frontend) () =
  let fe = make ~max_clients:1 () in
  with_running fe (fun path ->
      let shed_before = fe.shed () in
      let first = connect_with_retry path in
      (* a completed round trip proves the loop holds [first] *)
      write_line first {|{"id":1,"cmd":"ping"}|};
      Alcotest.(check bool) "first client served" true
        (is_ok (parse_reply (input_line (Unix.in_channel_of_descr first))));
      let second = connect_with_retry path in
      let ic = Unix.in_channel_of_descr second in
      let reply = parse_reply (input_line ic) in
      Alcotest.(check bool) "ok:false" false (is_ok reply);
      Alcotest.(check bool) "overloaded flag" true (flag "overloaded" reply);
      (match input_line ic with
      | line -> Alcotest.failf "expected EOF after the overloaded line, got %s" line
      | exception End_of_file -> ());
      Alcotest.(check int) "one connection shed" (shed_before + 1) (fe.shed ());
      Unix.close second;
      Unix.close first)

(* -- graceful drain -- *)

(* run must notice the pre-set drain flag and return promptly. *)
let test_programmatic_drain (make : ?max_clients:int -> unit -> frontend) () =
  let fe = make () in
  fe.request_drain ();
  let path = fresh_socket_path "clara_robust_drain" in
  fe.run ~socket_path:path;
  Alcotest.(check bool) "socket removed after drain" false (Sys.file_exists path);
  fe.finish ()

let test_sigterm_drain () =
  let s = Serve.Server.create ~cache_capacity:8 (Lazy.force models) in
  let path = Filename.temp_file "clara_robust_sigterm" ".sock" in
  Sys.remove path;
  let pid = Unix.getpid () in
  let closer =
    Domain.spawn (fun () ->
        let reply = client_round path {|{"id":1,"cmd":"ping"}|} in
        Unix.kill pid Sys.sigterm;
        reply)
  in
  (* serves the ping, then the signal handler requests the drain and the
     EINTR'd select notices it; if drain were broken this would hang the
     whole binary, which is itself the failure signal *)
  Serve.Server.run s ~socket_path:path;
  let reply = Domain.join closer in
  Alcotest.(check bool) "request before SIGTERM answered" true (is_ok (parse_reply reply));
  Alcotest.(check bool) "socket removed after drain" false (Sys.file_exists path);
  Alcotest.(check int) "served the one request" 1 (Serve.Server.served s)

(* -- Serve.Client against stub servers -- *)

(* The caller unlinks [path] before spawning a stub, so the socket file
   reappearing means the stub's [bind] completed — after this, a client
   connect cannot race the listener into an ENOENT that would skew the
   attempt counts under test. *)
let await_stub path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.failf "stub never bound %s" path
    else begin
      Unix.sleepf 0.01;
      go (n - 1)
    end
  in
  go 500

(* A stub that sheds its first [overloaded_first] conversations with an
   overloaded reply (closing each time, like the connection-limit path),
   then answers ok.  Records every request id it sees. *)
let overloaded_stub path ~overloaded_first =
  Domain.spawn (fun () ->
      let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 8;
      let ids = ref [] in
      let rec serve n =
        let fd, _ = Unix.accept listener in
        let line =
          match input_line (Unix.in_channel_of_descr fd) with
          | l -> l
          | exception End_of_file -> ""
        in
        (match Serve.Jsonl.of_string line with
        | Ok j -> ids := Serve.Jsonl.member "id" j :: !ids
        | Error _ -> ());
        if n < overloaded_first then begin
          write_line fd {|{"ok":false,"error":"overloaded: stub","overloaded":true}|};
          (try Unix.close fd with Unix.Unix_error _ -> ());
          serve (n + 1)
        end
        else begin
          write_line fd {|{"ok":true,"pong":true}|};
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
      in
      serve 0;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      List.rev !ids)

let test_client_retries_overloaded () =
  let path = Filename.temp_file "clara_robust_client" ".sock" in
  Sys.remove path;
  let stub = overloaded_stub path ~overloaded_first:2 in
  await_stub path;
  (* tiny backoff keeps the test fast; the schedule is still exercised *)
  let c =
    Serve.Client.create ~timeout_s:5.0 ~retries:4 ~backoff_base_s:0.005 ~backoff_cap_s:0.02
      ~seed:3 ~socket_path:path ()
  in
  let reply =
    match Serve.Client.request c [ ("cmd", Serve.Jsonl.Str "ping") ] with
    | Ok r -> r
    | Error e -> Alcotest.failf "request failed: %s" (Serve.Client.error_to_string e)
  in
  Serve.Client.close c;
  let ids = Domain.join stub in
  Alcotest.(check bool) "eventually ok" true (is_ok reply);
  Alcotest.(check int) "two shed attempts plus success" 3 (Serve.Client.attempts c);
  Alcotest.(check int) "two retries used" 2 (Serve.Client.retries_used c);
  Alcotest.(check int) "stub saw three attempts" 3 (List.length ids);
  (* idempotent ids: every retry re-sent the same id *)
  match ids with
  | first :: rest ->
    Alcotest.(check bool) "id assigned" true (first <> Some Serve.Jsonl.Null && first <> None);
    List.iter
      (fun id -> Alcotest.(check bool) "same id on every attempt" true (id = first))
      rest
  | [] -> Alcotest.fail "stub saw no requests"

let test_client_timeout_then_error () =
  let path = Filename.temp_file "clara_robust_mute" ".sock" in
  Sys.remove path;
  (* a mute stub: accepts and reads, never replies *)
  let stub =
    Domain.spawn (fun () ->
        let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind listener (Unix.ADDR_UNIX path);
        Unix.listen listener 8;
        let conns =
          List.init 2 (fun _ ->
              let fd, _ = Unix.accept listener in
              let ic = Unix.in_channel_of_descr fd in
              (try ignore (input_line ic) with End_of_file -> ());
              (fd, ic))
        in
        (* hold every connection open (never replying) until the client
           gives up on it, so each attempt fails by timeout, not by EOF *)
        List.iter
          (fun (_, ic) -> try ignore (input_line ic) with End_of_file | Sys_error _ -> ())
          conns;
        List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
        (try Unix.close listener with Unix.Unix_error _ -> ());
        try Sys.remove path with Sys_error _ -> ())
  in
  await_stub path;
  let c =
    Serve.Client.create ~timeout_s:0.1 ~retries:1 ~backoff_base_s:0.005 ~socket_path:path ()
  in
  (match Serve.Client.request c [ ("cmd", Serve.Jsonl.Str "ping") ] with
  | Error Serve.Client.Timeout -> ()
  | Error e -> Alcotest.failf "expected Timeout, got %s" (Serve.Client.error_to_string e)
  | Ok _ -> Alcotest.fail "mute server cannot answer");
  Serve.Client.close c;
  Alcotest.(check int) "original attempt plus one retry" 2 (Serve.Client.attempts c);
  Domain.join stub

let test_client_does_not_retry_deadline () =
  let path = Filename.temp_file "clara_robust_deadline" ".sock" in
  Sys.remove path;
  let stub =
    Domain.spawn (fun () ->
        let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind listener (Unix.ADDR_UNIX path);
        Unix.listen listener 8;
        let fd, _ = Unix.accept listener in
        (try ignore (input_line (Unix.in_channel_of_descr fd)) with End_of_file -> ());
        write_line fd {|{"ok":false,"error":"deadline exceeded","deadline_exceeded":true}|};
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.close listener with Unix.Unix_error _ -> ());
        try Sys.remove path with Sys_error _ -> ())
  in
  await_stub path;
  let c = Serve.Client.create ~timeout_s:5.0 ~retries:4 ~socket_path:path () in
  (match Serve.Client.request c [ ("cmd", Serve.Jsonl.Str "ping") ] with
  | Ok r ->
    Alcotest.(check bool) "deadline reply passed through" true (flag "deadline_exceeded" r)
  | Error e -> Alcotest.failf "should not fail: %s" (Serve.Client.error_to_string e));
  Serve.Client.close c;
  Alcotest.(check int) "no retries for a deadline reply" 1 (Serve.Client.attempts c);
  Domain.join stub

let () =
  Alcotest.run "robust"
    [ ( "fault",
        [ Alcotest.test_case "CLARA_FAULT spec parsing" `Quick test_fault_parse;
          Alcotest.test_case "seeded decisions replay" `Quick test_fault_determinism;
          Alcotest.test_case "probability edges and counters" `Quick test_fault_edges ] );
      ( "jsonl-fuzz",
        [ Alcotest.test_case "parser never raises" `Quick test_jsonl_fuzz;
          Alcotest.test_case "salvage agrees with full parse" `Quick
            test_salvage_agrees_on_valid ] );
      ( "server",
        [ Alcotest.test_case "pool fault becomes a typed reply" `Slow
            test_pool_fault_typed_reply;
          Alcotest.test_case "fault outcomes independent of CLARA_JOBS" `Slow
            test_pool_fault_outcomes_jobs_independent;
          Alcotest.test_case "parse fault becomes a typed reply" `Quick
            test_jsonl_fault_typed_reply;
          Alcotest.test_case "deadlines enforced and overridable" `Slow test_deadline_exceeded;
          Alcotest.test_case "shedding beyond max_pending" `Quick
            test_shedding_beyond_max_pending;
          Alcotest.test_case "disconnects logged at info" `Quick
            test_disconnect_logged_at_info;
          Alcotest.test_case "connection limit sheds through the loop" `Quick
            (test_connection_limit_shed server_frontend) ] );
      ( "router",
        [ Alcotest.test_case "connection limit sheds through the loop" `Quick
            (test_connection_limit_shed router_frontend);
          Alcotest.test_case "programmatic drain" `Quick
            (test_programmatic_drain router_frontend) ] );
      ( "drain",
        [ Alcotest.test_case "programmatic drain" `Quick (test_programmatic_drain server_frontend);
          Alcotest.test_case "SIGTERM drains gracefully" `Slow test_sigterm_drain ] );
      ( "client",
        [ Alcotest.test_case "retries overloaded with one id" `Quick
            test_client_retries_overloaded;
          Alcotest.test_case "timeout after a mute server" `Quick test_client_timeout_then_error;
          Alcotest.test_case "deadline replies are not retried" `Quick
            test_client_does_not_retry_deadline ] ) ]
