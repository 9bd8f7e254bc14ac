(** Tests for the scale-out router: consistent-hash placement pinned
    against an independent reimplementation, bounded key movement under
    membership churn, per-tenant quota shedding, deterministic canary
    selection, worker-kill failover, and a zero-downtime rollout driven
    end-to-end over real worker processes.

    The topology cases spawn real workers: {!Router.Spawn} re-execs this
    test binary with a sentinel argv, so the hook below must run before
    anything else. *)

let () = Router.Spawn.worker_main_if_requested ()

module Jsonl = Serve.Jsonl

(* -- independent reimplementation of the placement function --

   Written deliberately differently from lib/router/chash.ml (explicit
   index loop, linear successor scan) so a shared bug cannot hide. *)

let fnv64_reimpl s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code s.[i]));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

(* ring position = splitmix64 finalizer of the FNV hash *)
let position_reimpl s =
  let z = fnv64_reimpl s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let lookup_reimpl ~vnodes names key =
  let points =
    List.concat_map
      (fun name ->
        List.init vnodes (fun i -> (position_reimpl (name ^ "#" ^ string_of_int i), name)))
      (List.sort_uniq String.compare names)
  in
  let sorted =
    List.sort
      (fun (a, an) (b, bn) ->
        match Int64.unsigned_compare a b with 0 -> String.compare an bn | c -> c)
      points
  in
  match sorted with
  | [] -> None
  | (_, first) :: _ ->
    let h = position_reimpl key in
    let rec scan = function
      | [] -> Some first  (* wrap *)
      | (p, name) :: rest ->
        if Int64.unsigned_compare p h >= 0 then Some name else scan rest
    in
    scan sorted

let keys n = List.init n (Printf.sprintf "key-%d")

let test_fnv_vectors () =
  (* published FNV-1a/64 test vectors *)
  Alcotest.(check bool) "offset basis" true (Router.Chash.fnv64 "" = 0xcbf29ce484222325L);
  Alcotest.(check bool) "'a'" true (Router.Chash.fnv64 "a" = 0xaf63dc4c8601ec8cL);
  Alcotest.(check bool) "'foobar'" true (Router.Chash.fnv64 "foobar" = 0x85944171f73967e8L)

let test_pin_against_reimpl () =
  let names = [ "alpha"; "bravo"; "charlie" ] in
  let ring = Router.Chash.create ~vnodes:16 names in
  List.iter
    (fun k ->
      let got = Router.Chash.lookup ring k in
      let want = lookup_reimpl ~vnodes:16 names k in
      if got <> want then
        Alcotest.failf "key %s: ring says %s, reimplementation says %s" k
          (Option.value got ~default:"-") (Option.value want ~default:"-"))
    (keys 500);
  (* creation order must not matter *)
  let shuffled = Router.Chash.create ~vnodes:16 [ "charlie"; "alpha"; "bravo" ] in
  List.iter
    (fun k ->
      Alcotest.(check bool) "order-independent" true
        (Router.Chash.lookup ring k = Router.Chash.lookup shuffled k))
    (keys 200)

let test_bounded_movement () =
  let names = [ "w0"; "w1"; "w2"; "w3"; "w4" ] in
  let before = Router.Chash.create ~vnodes:32 names in
  let owner ring k = Option.get (Router.Chash.lookup ring k) in
  let ks = keys 2000 in
  (* removing w2 may move only keys w2 owned *)
  let without = Router.Chash.create ~vnodes:32 (List.filter (( <> ) "w2") names) in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let o = owner before k and o' = owner without k in
      if o <> o' then begin
        if o <> "w2" then Alcotest.failf "key %s moved %s -> %s though w2 died" k o o';
        incr moved
      end)
    ks;
  let frac = float_of_int !moved /. 2000.0 in
  if frac < 0.05 || frac > 0.45 then
    Alcotest.failf "removal moved %.1f%% of keys (expected ~1/5)" (100.0 *. frac);
  (* adding w5 may only move keys onto w5 *)
  let plus = Router.Chash.create ~vnodes:32 ("w5" :: names) in
  let gained = ref 0 in
  List.iter
    (fun k ->
      let o = owner before k and o' = owner plus k in
      if o <> o' then begin
        if o' <> "w5" then Alcotest.failf "key %s moved %s -> %s though only w5 joined" k o o';
        incr gained
      end)
    ks;
  if !gained = 0 then Alcotest.fail "a joining worker took no keys at all"

let test_canary_draw () =
  let ks = keys 5000 in
  let selected seed fraction =
    List.filter (fun k -> Router.Chash.canary_draw ~seed k < fraction) ks
  in
  let a = selected 7 0.3 in
  (* pure in (seed, key): any evaluation order gives the same set *)
  let b =
    List.rev
      (List.filter (fun k -> Router.Chash.canary_draw ~seed:7 k < 0.3) (List.rev ks))
  in
  Alcotest.(check bool) "order-independent selection" true
    (List.sort compare a = List.sort compare b);
  let frac = float_of_int (List.length a) /. 5000.0 in
  if frac < 0.2 || frac > 0.4 then
    Alcotest.failf "fraction 0.3 selected %.3f of keyspace" frac;
  Alcotest.(check bool) "seed changes the draw" true (selected 8 0.3 <> a)

(* -- quota -- *)

let test_quota () =
  let q = Router.Quota.create ~limit:3 () in
  Router.Quota.begin_round q;
  for _ = 1 to 3 do
    Alcotest.(check bool) "under quota admitted" true (Router.Quota.admit q ~tenant:"a")
  done;
  Alcotest.(check bool) "4th line shed" false (Router.Quota.admit q ~tenant:"a");
  Alcotest.(check bool) "tenants are independent" true (Router.Quota.admit q ~tenant:"b");
  Router.Quota.begin_round q;
  Alcotest.(check bool) "round reset" true (Router.Quota.admit q ~tenant:"a");
  Alcotest.(check int) "sheds counted" 1 (Router.Quota.shed q);
  let unlimited = Router.Quota.create () in
  Router.Quota.begin_round unlimited;
  for _ = 1 to 100 do
    Alcotest.(check bool) "no limit" true (Router.Quota.admit unlimited ~tenant:"a")
  done

(* -- upstream line reader over a socketpair -- *)

let test_upstream_read_lines () =
  (* some replies longer than one 8 KiB read, one blank, one ending in
     '\r': the splitter passes every byte through *)
  let reply i =
    let pad = if i mod 3 = 0 then 9000 + (i * 37) else 10 + i in
    match i with
    | 4 -> ""
    | 7 -> Printf.sprintf {|{"id":%d}|} i ^ "\r"
    | _ ->
      Printf.sprintf {|{"id":%d,"report":"%s"}|} i (String.init pad (fun k -> Char.chr (97 + ((i + k) mod 26))))
  in
  let replies = List.init 12 reply in
  let partial = {|{"id":12,"repo|} in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") replies) in
  (* the tail of the last reply and the partial line go in one write, so
     the read that completes the batch also carries the residue *)
  let split = String.length payload - 9 in
  let tail = String.sub payload split 9 ^ partial in
  let r, w = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Domain.spawn (fun () ->
        let sizes = [| 1; 7; 13; 4099; 3; 977; 8193 |] in
        let pos = ref 0 and k = ref 0 in
        while !pos < split do
          let len = min sizes.(!k mod Array.length sizes) (split - !pos) in
          ignore (Unix.write_substring w payload !pos len);
          pos := !pos + len;
          incr k;
          Unix.sleepf 0.0005
        done;
        ignore (Unix.write_substring w tail 0 (String.length tail)))
  in
  let first, residue =
    match Router.Upstream.read_lines r ~residue:"" ~n:5 ~timeout_s:10.0 with
    | Ok x -> x
    | Error e -> Alcotest.failf "first batch: %s" e
  in
  let second, residue =
    match Router.Upstream.read_lines r ~residue ~n:7 ~timeout_s:10.0 with
    | Ok x -> x
    | Error e -> Alcotest.failf "second batch: %s" e
  in
  Domain.join writer;
  Alcotest.(check (list string)) "lines byte-identical" replies (first @ second);
  Alcotest.(check string) "trailing partial line is the residue" partial residue;
  (* complete lines already in the residue are served without a read *)
  (match Router.Upstream.read_lines r ~residue:"a\n\nb\nc" ~n:2 ~timeout_s:10.0 with
   | Ok (ls, rest) ->
     Alcotest.(check (list string)) "lines from residue" [ "a"; "" ] ls;
     Alcotest.(check string) "rest of residue kept" "b\nc" rest
   | Error e -> Alcotest.failf "residue-only read: %s" e);
  Unix.close w;
  (match Router.Upstream.read_lines r ~residue:partial ~n:1 ~timeout_s:10.0 with
   | Error e -> Alcotest.(check string) "EOF is an error" "worker closed the connection" e
   | Ok _ -> Alcotest.fail "EOF mid-line must not yield a line");
  Unix.close r

(* -- front, no live workers (sockets that do not exist) -- *)

let dead_front ?tenant_quota () =
  Router.Front.create ?tenant_quota ~vnodes:16
    ~workers:
      [ ("w0", "/tmp/clara-no-such-socket-0"); ("w1", "/tmp/clara-no-such-socket-1");
        ("w2", "/tmp/clara-no-such-socket-2") ]
    ()

let analyze_line ?(id = 1) ?tenant ~nf ~workload () =
  let tenant = match tenant with None -> "" | Some s -> Printf.sprintf {|,"tenant":"%s"|} s in
  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"%s}|} id nf workload tenant

let parse line =
  match Jsonl.of_string line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable reply %s: %s" line e

let flagged name reply = Jsonl.member name reply = Some (Jsonl.Bool true)

let test_target_routing () =
  let t = dead_front () in
  (* router-local commands never forward *)
  List.iter
    (fun cmd ->
      let line = Printf.sprintf {|{"id":1,"cmd":"%s"}|} cmd in
      Alcotest.(check bool) (cmd ^ " is local") true (Router.Front.target t line = None))
    [ "health"; "topology"; "rollout"; "promote"; "rollback"; "reload"; "shutdown" ];
  (* analyze keys collapse to nf|workload; tenant comes along *)
  (match Router.Front.target t (analyze_line ~nf:"tcpack" ~workload:"mixed" ~tenant:"acme" ()) with
  | None -> Alcotest.fail "analyze must forward"
  | Some r ->
    Alcotest.(check string) "key" "tcpack|mixed" r.Router.Front.rt_key;
    Alcotest.(check string) "tenant" "acme" r.Router.Front.rt_tenant;
    Alcotest.(check bool) "no canary without a rollout" false r.Router.Front.rt_canary;
    (* pinned to the ring's own answer *)
    let ring = Router.Chash.create ~vnodes:16 [ "w0"; "w1"; "w2" ] in
    Alcotest.(check bool) "worker = ring lookup" true
      (r.Router.Front.rt_worker = Router.Chash.lookup ring "tcpack|mixed"));
  (* malformed lines key on the raw bytes but still salvage the tenant *)
  match Router.Front.target t {|{"id":7,"cmd":"analyze","tenant":"acme","nf": |} with
  | None -> Alcotest.fail "malformed lines forward (workers answer them typed)"
  | Some r -> Alcotest.(check string) "salvaged tenant" "acme" r.Router.Front.rt_tenant

(* The worker's flow key for an inline program, rebuilt here from the
   program itself: the CRC of the compiled element's pretty-print. *)
let program_key_reimpl prog workload =
  Printf.sprintf "p4lite:%08lx|%s"
    (Persist.Wire.crc32 (Nf_lang.Pp.to_string (Nf_lang.P4lite.compile prog)))
    workload

(* An inline program places on the program and workload, never on the
   id or trace id, so a repeat lands on the worker that cached it. *)
let test_inline_program_placement () =
  let t = dead_front () in
  let program k =
    Printf.sprintf
      {|{"name":"p%d","tables":[{"name":"t","keys":["ip_src"],"actions":["drop","forward:%d"],"default":"forward:0","size":16}]}|}
      k (k mod 3)
  in
  let line ~id ~trace k =
    Printf.sprintf {|{"id":%d,"cmd":"analyze","trace_id":"%s","p4lite":%s,"workload":"large"}|} id trace
      (program k)
  in
  for k = 0 to 7 do
    let routes =
      List.map
        (fun (id, trace) ->
          match Router.Front.target t (line ~id ~trace k) with
          | Some r -> (r.Router.Front.rt_key, r.Router.Front.rt_worker)
          | None -> Alcotest.fail "inline analyze must forward")
        [ (1, "a"); (2, "b"); (30, "c-9"); (4000, "zz") ]
    in
    let first = List.hd routes in
    List.iter
      (fun r -> Alcotest.(check bool) (Printf.sprintf "program %d: one key, one worker" k) true (r = first))
      routes;
    let prog =
      { Nf_lang.P4lite.p_name = Printf.sprintf "p%d" k;
        pipeline =
          [ { Nf_lang.P4lite.t_name = "t"; keys = [ Nf_lang.Ast.Ip_src ];
              actions = [ Nf_lang.P4lite.Drop_packet; Nf_lang.P4lite.Forward (k mod 3) ];
              default_action = Nf_lang.P4lite.Forward 0; size = 16 } ] }
    in
    Alcotest.(check string) (Printf.sprintf "program %d: key is the worker's program|workload" k)
      (program_key_reimpl prog "large") (fst first)
  done

(* Three spellings of one program: members in another order, and the
   defaults ("size":64, "default":"noop") written out or left out.  Their
   JSON texts differ, so only a key derived from the program itself puts
   them on one worker. *)
let respelled_program k =
  [ Printf.sprintf
      {|{"name":"resp%d","tables":[{"name":"t","keys":["ip_dst"],"actions":["drop","forward:2"],"default":"noop","size":64}]}|}
      k;
    Printf.sprintf
      {|{"tables":[{"size":64,"actions":["drop","forward:2"],"keys":["ip_dst"],"name":"t"}],"name":"resp%d"}|}
      k;
    Printf.sprintf
      {|{"name":"resp%d","tables":[{"name":"t","keys":["ip_dst"],"actions":["drop","forward:2"]}]}|}
      k ]

let program_line ~id program =
  Printf.sprintf {|{"id":%d,"cmd":"analyze","p4lite":%s,"workload":"mixed"}|} id program

let test_respelled_program_one_key () =
  let t = dead_front () in
  for k = 0 to 7 do
    let routes =
      List.mapi
        (fun i program ->
          let line = program_line ~id:i program in
          match Router.Front.target t line with
          | None -> Alcotest.fail "inline analyze must forward"
          | Some r ->
            (* the router's key is the one the worker caches under *)
            let worker_key =
              match (Serve.Proto.decode (parse line)).Serve.Proto.target with
              | Serve.Proto.Program { key; _ } -> key
              | _ -> Alcotest.fail "the worker decodes an inline program"
            in
            Alcotest.(check string) (Printf.sprintf "program %d: rt_key = worker key" k)
              worker_key r.Router.Front.rt_key;
            (r.Router.Front.rt_key, r.Router.Front.rt_worker))
        (respelled_program k)
    in
    let first = List.hd routes in
    List.iter
      (fun r ->
        Alcotest.(check bool) (Printf.sprintf "program %d: one key, one worker" k) true (r = first))
      routes;
    let prog =
      { Nf_lang.P4lite.p_name = Printf.sprintf "resp%d" k;
        pipeline =
          [ { Nf_lang.P4lite.t_name = "t"; keys = [ Nf_lang.Ast.Ip_dst ];
              actions = [ Nf_lang.P4lite.Drop_packet; Nf_lang.P4lite.Forward 2 ];
              default_action = Nf_lang.P4lite.No_op; size = 64 } ] }
    in
    Alcotest.(check string) (Printf.sprintf "program %d: the worker's key" k)
      (program_key_reimpl prog "mixed") (fst first)
  done

let test_dead_worker_is_typed_unavailable () =
  let t = dead_front () in
  let replies =
    Router.Front.route_batch t [ analyze_line ~id:42 ~nf:"tcpack" ~workload:"mixed" () ]
  in
  match replies with
  | [ line ] ->
    let r = parse line in
    Alcotest.(check bool) "ok:false" true (Jsonl.member "ok" r = Some (Jsonl.Bool false));
    Alcotest.(check bool) "unavailable flag" true (flagged "unavailable" r);
    Alcotest.(check bool) "id echoed" true (Jsonl.member "id" r = Some (Jsonl.Num 42.0));
    Alcotest.(check bool) "worker named" true (Jsonl.str_member "worker" r <> None);
    Alcotest.(check bool) "failover counted" true (Router.Front.failovers t >= 1)
  | _ -> Alcotest.fail "expected exactly one reply"

(* A worker that takes lines and never answers: the line waits
   [forward_timeout_s], then comes back typed unavailable and the worker
   is marked down. *)
let test_mute_worker_times_out () =
  let path = Filename.temp_file "clara_router_mute" ".sock" in
  Sys.remove path;
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let t = Router.Front.create ~forward_timeout_s:0.2 ~workers:[ ("w0", path) ] () in
  let t0 = Unix.gettimeofday () in
  let replies = Router.Front.route_batch t [ analyze_line ~id:7 ~nf:"tcpack" ~workload:"mixed" () ] in
  let waited = Unix.gettimeofday () -. t0 in
  Router.Front.close t;
  match List.map parse replies with
  | [ r ] ->
    Alcotest.(check bool) "typed unavailable" true (flagged "unavailable" r);
    Alcotest.(check (option string)) "names the worker" (Some "w0") (Jsonl.str_member "worker" r);
    Alcotest.(check bool) "after the forward timeout" true (waited >= 0.2 && waited < 5.0);
    Alcotest.(check int) "worker marked down" 1 (Router.Front.failovers t)
  | _ -> Alcotest.fail "expected one reply"

let test_quota_shed_is_typed_overloaded () =
  let t = dead_front ~tenant_quota:1 () in
  let mk id = analyze_line ~id ~nf:"tcpack" ~workload:"mixed" ~tenant:"noisy" () in
  let other = analyze_line ~id:9 ~nf:"tcpack" ~workload:"mixed" ~tenant:"polite" () in
  let replies = Router.Front.route_batch t [ mk 1; mk 2; mk 3; other ] in
  match List.map parse replies with
  | [ first; second; third; fourth ] ->
    (* the one admitted line then hits the dead worker *)
    Alcotest.(check bool) "admitted line fails unavailable" true (flagged "unavailable" first);
    List.iter
      (fun r ->
        Alcotest.(check bool) "over-quota is overloaded" true (flagged "overloaded" r);
        Alcotest.(check bool) "tenant named" true
          (Jsonl.str_member "tenant" r = Some "noisy"))
      [ second; third ];
    (* an under-quota tenant in the same round is admitted (and then
       fails over the dead worker, not over quota) *)
    Alcotest.(check bool) "other tenant admitted" true (flagged "unavailable" fourth);
    Alcotest.(check bool) "quota sheds counted" true (Router.Front.shed t >= 2)
  | _ -> Alcotest.fail "expected four replies"

(* -- topology: real worker processes -- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tiny_models () =
  let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
  let predictor = Clara.Predictor.train ~epochs:1 ds in
  let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
  { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }

(* Two bundles of the same models but distinct manifests: distinct
   version tokens, so rollouts have something to negotiate. *)
let save_bundle ~built_at dir models =
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at }
  in
  Persist.Bundle.save ~dir manifest models;
  Persist.Bundle.version manifest

let fresh_dir tag =
  let dir = Filename.temp_file ("clara_router_" ^ tag) ".d" in
  Sys.remove dir;
  dir

type fleet = {
  fl_workers : Router.Spawn.t list;
  fl_front : Router.Front.t;
  fl_dir_a : string;
  fl_dir_b : string;
  fl_version_a : string;
  fl_version_b : string;
}

let with_fleet ?(n = 3) ?tenant_quota f =
  let models = tiny_models () in
  let dir_a = fresh_dir "a" and dir_b = fresh_dir "b" in
  let version_a = save_bundle ~built_at:"1970-01-01T00:00:00Z" dir_a models in
  let version_b = save_bundle ~built_at:"1971-01-01T00:00:00Z" dir_b models in
  if version_a = version_b then Alcotest.fail "distinct manifests must version differently";
  let sockets =
    List.init n (fun k ->
        Printf.sprintf "%s/clara_rt_%d_w%d.sock" (Filename.get_temp_dir_name ())
          (Unix.getpid ()) k)
  in
  let workers =
    List.mapi
      (fun k socket_path ->
        Router.Spawn.spawn ~name:(Printf.sprintf "w%d" k) ~socket_path ~bundle:dir_a ())
      sockets
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Router.Spawn.kill workers;
      List.iter Router.Spawn.wait workers;
      List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets;
      rm_rf dir_a;
      rm_rf dir_b)
  @@ fun () ->
  List.iter
    (fun sp ->
      if not (Router.Spawn.wait_ready sp) then
        Alcotest.failf "worker %s never came up" sp.Router.Spawn.sp_name)
    workers;
  let front =
    Router.Front.create ?tenant_quota ~vnodes:16 ~forward_timeout_s:10.0 ~canary_seed:7
      ~active_bundle:dir_a
      ~workers:(List.map (fun sp -> (sp.Router.Spawn.sp_name, sp.Router.Spawn.sp_socket)) workers)
      ()
  in
  let fleet =
    { fl_workers = workers; fl_front = front; fl_dir_a = dir_a; fl_dir_b = dir_b;
      fl_version_a = version_a; fl_version_b = version_b }
  in
  let out = f fleet in
  Router.Front.close front;
  out

let worker_version sp =
  match
    Router.Upstream.oneshot ~socket_path:sp.Router.Spawn.sp_socket ~timeout_s:10.0
      {|{"cmd":"health","id":0}|}
  with
  | Error e -> Alcotest.failf "health probe of %s failed: %s" sp.Router.Spawn.sp_name e
  | Ok reply -> (
    match Jsonl.str_member "version" (parse reply) with
    | Some v -> v
    | None -> Alcotest.failf "no version in health reply %s" reply)

let good_batch () =
  [ analyze_line ~id:1 ~nf:"tcpack" ~workload:"mixed" ();
    {|{"id":2,"cmd":"ping"}|};
    analyze_line ~id:3 ~nf:"udpipencap" ~workload:"small" ();
    analyze_line ~id:4 ~nf:"tcpack" ~workload:"mixed" () ]

let all_ok replies =
  List.iter
    (fun line ->
      let r = parse line in
      if Jsonl.member "ok" r <> Some (Jsonl.Bool true) then
        Alcotest.failf "reply not ok: %s" line)
    replies

let test_routed_serving () =
  with_fleet @@ fun fl ->
  let replies = Router.Front.route_batch fl.fl_front (good_batch ()) in
  Alcotest.(check int) "reply per line" 4 (List.length replies);
  all_ok replies;
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  Alcotest.(check int) "all lines forwarded" 8 (Router.Front.forwarded fl.fl_front);
  Alcotest.(check int) "nothing unavailable" 0 (Router.Front.unavailable fl.fl_front);
  (* the aggregate health document sees the whole fleet *)
  Router.Front.probe fl.fl_front;
  let h = parse (Router.Front.healthz_json fl.fl_front) in
  Alcotest.(check bool) "healthz ok" true (flagged "ok" h);
  Alcotest.(check bool) "all workers up" true
    (Jsonl.member "workers_up" h = Some (Jsonl.Num 3.0));
  (match Jsonl.member "workers" h with
  | Some (Jsonl.Arr ws) ->
    Alcotest.(check int) "three workers listed" 3 (List.length ws);
    List.iter
      (fun w ->
        Alcotest.(check bool) "per-worker version aggregated" true
          (Jsonl.str_member "version" w = Some fl.fl_version_a);
        match Jsonl.num_member "pid" w with
        | Some p when p > 0.0 -> ()
        | _ -> Alcotest.fail "per-worker pid aggregated")
      ws
  | _ -> Alcotest.fail "healthz lists workers")

let test_worker_kill_failover () =
  with_fleet @@ fun fl ->
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  let key_line = analyze_line ~id:5 ~nf:"tcpack" ~workload:"mixed" () in
  let owner =
    match Router.Front.target fl.fl_front key_line with
    | Some { Router.Front.rt_worker = Some w; _ } -> w
    | _ -> Alcotest.fail "key must have an owner"
  in
  let victim = List.find (fun sp -> sp.Router.Spawn.sp_name = owner) fl.fl_workers in
  Router.Spawn.kill victim;
  Router.Spawn.wait victim;
  (* in-flight round: typed unavailable naming the dead worker *)
  (match Router.Front.route_batch fl.fl_front [ key_line ] with
  | [ line ] ->
    let r = parse line in
    Alcotest.(check bool) "typed unavailable" true (flagged "unavailable" r);
    Alcotest.(check bool) "dead worker named" true (Jsonl.str_member "worker" r = Some owner)
  | _ -> Alcotest.fail "expected one reply");
  Alcotest.(check int) "one failover" 1 (Router.Front.failovers fl.fl_front);
  (* next round re-hashes to a survivor *)
  (match Router.Front.target fl.fl_front key_line with
  | Some { Router.Front.rt_worker = Some w; _ } when w <> owner -> ()
  | _ -> Alcotest.fail "key must re-hash off the dead worker");
  all_ok (Router.Front.route_batch fl.fl_front [ key_line ]);
  (* a respawned worker is re-admitted by the prober and takes its keys
     back (deterministic placement) *)
  let replacement =
    Router.Spawn.spawn ~name:owner ~socket_path:victim.Router.Spawn.sp_socket
      ~bundle:fl.fl_dir_a ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.Spawn.kill replacement;
      Router.Spawn.wait replacement)
  @@ fun () ->
  if not (Router.Spawn.wait_ready replacement) then Alcotest.fail "respawn never came up";
  Router.Front.probe fl.fl_front;
  (match Router.Front.target fl.fl_front key_line with
  | Some { Router.Front.rt_worker = Some w; _ } ->
    Alcotest.(check string) "keys return to the re-admitted worker" owner w
  | _ -> Alcotest.fail "no owner after re-admission");
  all_ok (Router.Front.route_batch fl.fl_front [ key_line ])

let test_canary_rollout () =
  with_fleet @@ fun fl ->
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* canary 40% of a 3-worker fleet -> 2 canaries, 1 kept back *)
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_b ~fraction:0.4 () with
  | Error e -> Alcotest.failf "rollout failed: %s" e
  | Ok v -> Alcotest.(check string) "negotiated version" fl.fl_version_b v);
  let versions = List.map worker_version fl.fl_workers in
  Alcotest.(check int) "two canaries on the new version" 2
    (List.length (List.filter (( = ) fl.fl_version_b) versions));
  Alcotest.(check int) "one worker kept back" 1
    (List.length (List.filter (( = ) fl.fl_version_a) versions));
  (* zero failed requests while the rollout is live *)
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* canary selection is a pure function of (seed, key): any arrival
     order steers the same keys *)
  let lines = List.init 40 (fun i -> analyze_line ~id:i ~nf:(Printf.sprintf "k%d" i) ~workload:"mixed" ()) in
  let steer ls =
    List.map
      (fun l ->
        match Router.Front.target fl.fl_front l with
        | Some r -> (l, r.Router.Front.rt_canary, r.Router.Front.rt_worker)
        | None -> Alcotest.failf "line did not forward: %s" l)
      ls
  in
  let forward_order = steer lines in
  let reverse_order = List.rev (steer (List.rev lines)) in
  Alcotest.(check bool) "steering ignores arrival order" true (forward_order = reverse_order);
  let canaried = List.length (List.filter (fun (_, c, _) -> c) forward_order) in
  if canaried = 0 || canaried = 40 then
    Alcotest.failf "canary fraction 0.4 steered %d/40 keys" canaried;
  (* promote: the rest of the fleet converges on the new version *)
  (match Router.Front.promote fl.fl_front with
  | Error e -> Alcotest.failf "promote failed: %s" e
  | Ok (v, failed) ->
    Alcotest.(check string) "promoted version" fl.fl_version_b v;
    Alcotest.(check int) "no worker failed to promote" 0 (List.length failed));
  List.iter
    (fun sp -> Alcotest.(check string) "fleet on new version" fl.fl_version_b (worker_version sp))
    fl.fl_workers;
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* a second rollout, rolled back: canaries return to the active bundle *)
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_a ~fraction:0.4 () with
  | Error e -> Alcotest.failf "second rollout failed: %s" e
  | Ok v -> Alcotest.(check string) "old bundle re-negotiated" fl.fl_version_a v);
  (match Router.Front.rollback fl.fl_front with
  | Error e -> Alcotest.failf "rollback failed: %s" e
  | Ok failed -> Alcotest.(check int) "rollback clean" 0 (List.length failed));
  List.iter
    (fun sp ->
      Alcotest.(check string) "rollback restored the fleet" fl.fl_version_b (worker_version sp))
    fl.fl_workers;
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* worker-side negotiation: a reload whose expectation mismatches is
     refused and the old version keeps serving *)
  let w0 = List.hd fl.fl_workers in
  (match
     Router.Upstream.oneshot ~socket_path:w0.Router.Spawn.sp_socket ~timeout_s:10.0
       (Printf.sprintf {|{"cmd":"reload","bundle":"%s","expect":"deadbeef","id":0}|}
          fl.fl_dir_a)
   with
  | Error e -> Alcotest.failf "reload round trip failed: %s" e
  | Ok reply ->
    let r = parse reply in
    Alcotest.(check bool) "mismatched expect refused" true
      (Jsonl.member "ok" r = Some (Jsonl.Bool false)));
  Alcotest.(check string) "old version still serving" fl.fl_version_b (worker_version w0)

(* -- routed vs direct --

   One mixed stream answered two ways — through the router over real
   workers, and by one in-process server over the same bundle — must
   produce the same reply bytes modulo the per-request volatile fields
   ({!Serve.Replay.normalize}: id, trace id, cached, path).  Every reply
   class is in the stream: corpus miss then hit, malformed JSON, unknown
   NF, inline and bad P4lite, a doomed deadline, an unknown command. *)
let differential_stream =
  [ analyze_line ~id:1 ~nf:"tcpack" ~workload:"mixed" ();
    analyze_line ~id:2 ~nf:"udpipencap" ~workload:"small" ();
    {|{"id":3,"cmd":"analyze","nf": |};
    {|not json at all|};
    analyze_line ~id:4 ~nf:"nosuchnf" ~workload:"mixed" ();
    {|{"id":5,"cmd":"analyze","p4lite":{"name":"tinyacl","tables":[{"name":"acl","keys":["ip_src"],"actions":["drop","forward:1"],"default":"forward:0","size":16}]}}|};
    {|{"id":6,"cmd":"analyze","p4lite":{"tables":[{"name":"t","keys":["no_such_field"],"actions":["drop"]}]}}|};
    {|{"id":7,"cmd":"analyze","nf":"anonipaddr","workload":"large","deadline_ms":0.000001}|};
    {|{"id":8,"cmd":"frobnicate"}|};
    {|{"id":9,"op":"ping","trace_id":"keep-me"}|};
    {|{"id":10,"cmd":"list"}|};
    analyze_line ~id:11 ~nf:"tcpack" ~workload:"mixed" () ]

let test_routed_vs_direct () =
  with_fleet ~n:2 @@ fun fl ->
  let server =
    match Persist.Bundle.load_salvage ~dir:fl.fl_dir_a with
    | Error e -> Alcotest.failf "cannot load bundle: %s" (Persist.Wire.error_to_string e)
    | Ok (b, _) ->
      Serve.Server.create
        ~version:(Persist.Bundle.version b.Persist.Bundle.manifest)
        b.Persist.Bundle.models
  in
  (* round 1 answers the corpus keys cold, round 2 from the flow caches *)
  for round = 1 to 2 do
    let routed = Router.Front.route_batch fl.fl_front differential_stream in
    let direct = Serve.Server.process_batch server differential_stream in
    Alcotest.(check int) "reply per line" (List.length differential_stream)
      (List.length routed);
    List.iteri
      (fun i (r, d) ->
        if Serve.Replay.normalize r <> Serve.Replay.normalize d then
          Alcotest.failf "round %d line %d differs:\n  routed %s\n  direct %s" round i r d)
      (List.combine routed direct)
  done;
  Alcotest.(check int) "every line forwarded" (2 * List.length differential_stream)
    (Router.Front.forwarded fl.fl_front)

(* -- relay as replies arrive --

   Through the real router loop over real workers: client A's misses do
   not hold back client B's hits, even on the same worker.  A queues
   slow cold analyses on B's worker; B's hit is relayed while A is still
   owed every reply.  Each client has its own upstream connection to the
   worker, and the worker answers the hit between the misses' slices. *)
(* [f connect] while [Front.run] serves on a domain of its own;
   [connect ()] opens a client connection to the router socket.  The
   router drains once [f] returns. *)
let with_running_front fl tag f =
  let socket_path =
    Printf.sprintf "%s/clara_rt_%d_%s.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ()) tag
  in
  let front_domain = Domain.spawn (fun () -> Router.Front.run fl.fl_front ~socket_path) in
  Fun.protect
    ~finally:(fun () ->
      Router.Front.request_drain fl.fl_front;
      Domain.join front_domain)
  @@ fun () ->
  let connect () =
    let rec go n =
      match Serve.Lineio.connect ~socket_path with
      | Ok fd -> fd
      | Error e when n = 0 -> Alcotest.failf "router socket: %s" e
      | Error _ ->
        Unix.sleepf 0.02;
        go (n - 1)
    in
    let fd = go 500 in
    (fd, Unix.in_channel_of_descr fd)
  in
  f connect

let send (fd, _) lines =
  Serve.Lineio.write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let recv (_, ic) = parse (input_line ic)

let test_miss_does_not_delay_other_client () =
  with_fleet ~n:2 @@ fun fl ->
  let hit_line = analyze_line ~id:1 ~nf:"tcpack" ~workload:"mixed" () in
  let owner line =
    match Router.Front.target fl.fl_front line with
    | Some { Router.Front.rt_worker = Some w; _ } -> w
    | _ -> Alcotest.fail "no owner"
  in
  let w = owner hit_line in
  let slow =
    List.concat_map
      (fun nf -> List.map (fun wl -> (nf, wl)) [ "small"; "large"; "mixed" ])
      [ "wepdecap"; "cmsketch"; "Mazu-NAT"; "DNSProxy" ]
    |> List.mapi (fun i (nf, workload) -> (100 + i, analyze_line ~id:(100 + i) ~nf ~workload ()))
    |> List.filter (fun (_, l) -> owner l = w)
    |> List.filteri (fun i _ -> i < 4)
  in
  Alcotest.(check bool) "slow keys on the hit's worker" true (List.length slow >= 3);
  with_running_front fl "relay" @@ fun connect ->
  let quiet (fd, _) = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> true | _ -> false in
  let a = connect () and b = connect () in
  send b [ hit_line ];
  Alcotest.(check bool) "warm-up ok" true (flagged "ok" (recv b));
  send a (List.map snd slow);
  send b [ analyze_line ~id:2 ~nf:"tcpack" ~workload:"mixed" () ];
  let hit = recv b in
  Alcotest.(check bool) "B's hit relayed while A is owed every reply" true (quiet a);
  Alcotest.(check bool) "a cache hit" true (flagged "cached" hit);
  List.iter
    (fun (id, _) ->
      let r = recv a in
      Alcotest.(check bool) "A's misses answered" true (flagged "ok" r && not (flagged "cached" r));
      Alcotest.(check (option (float 0.0))) "in request order" (Some (float_of_int id))
        (Jsonl.num_member "id" r))
    slow;
  List.iter (fun (fd, _) -> Unix.close fd) [ a; b ]

(* Routed = direct with interleaved clients: two connections through
   [Front.run] over two workers each pipeline the whole differential
   stream, B in reverse order, before either reads a reply; first cold,
   then warm.  Each connection's replies, in order, equal one in-process
   server's replies to its own stream modulo {!Serve.Replay.normalize},
   however the two clients' lines interleave on the workers.  The two
   orders differ, so a reply handed to the wrong client shows. *)
let test_routed_vs_direct_interleaved () =
  with_fleet ~n:2 @@ fun fl ->
  let server =
    match Persist.Bundle.load_salvage ~dir:fl.fl_dir_a with
    | Error e -> Alcotest.failf "cannot load bundle: %s" (Persist.Wire.error_to_string e)
    | Ok (b, _) ->
      Serve.Server.create
        ~version:(Persist.Bundle.version b.Persist.Bundle.manifest)
        b.Persist.Bundle.models
  in
  let streams = [ ("A", differential_stream); ("B", List.rev differential_stream) ] in
  let direct = List.map (fun (_, stream) -> Serve.Server.process_batch server stream) streams in
  with_running_front fl "interleave" @@ fun connect ->
  let clients = List.map (fun _ -> connect ()) streams in
  for round = 1 to 2 do
    List.iter2 (fun c (_, stream) -> send c stream) clients streams;
    List.iteri
      (fun k ((_, ic), (name, _)) ->
        List.iteri
          (fun i d ->
            let r = input_line ic in
            if Serve.Replay.normalize r <> Serve.Replay.normalize d then
              Alcotest.failf "round %d client %s line %d differs:\n  routed %s\n  direct %s" round
                name i r d)
          (List.nth direct k))
      (List.combine clients streams)
  done;
  List.iter (fun (fd, _) -> Unix.close fd) clients

(* A respelled program is a flow-cache hit through the router.  Program 2's
   first two spellings have JSON texts that hash to different workers
   (checked below), so the hit needs the program-derived key. *)
let test_respelled_program_hits () =
  with_fleet @@ fun fl ->
  let p, p' =
    match respelled_program 2 with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let ring = Router.Chash.create ~vnodes:16 [ "w0"; "w1"; "w2" ] in
  let text_worker program = Router.Chash.lookup ring (Jsonl.to_string (parse program) ^ "|mixed") in
  Alcotest.(check bool) "the two JSON texts hash apart" true (text_worker p <> text_worker p');
  let analyze program =
    match Router.Front.route_batch fl.fl_front [ program_line ~id:1 program ] with
    | [ reply ] -> parse reply
    | _ -> Alcotest.fail "expected one reply"
  in
  let first = analyze p in
  let second = analyze p' in
  Alcotest.(check bool) "first spelling analyzed fresh" true
    (Jsonl.member "cached" first = Some (Jsonl.Bool false));
  Alcotest.(check bool) "second spelling is a cache hit" true
    (Jsonl.member "cached" second = Some (Jsonl.Bool true));
  match (Jsonl.str_member "report" first, Jsonl.str_member "report" second) with
  | Some a, Some b -> Alcotest.(check string) "byte-identical report" a b
  | _ -> Alcotest.fail "analyze replies carry a report"

(* The cached /healthz document is re-rendered by the health sweep, not
   per round: under [Front.run] its served count catches up within two
   health periods, while the socket [health] command counts exactly. *)
let test_healthz_cached_within_two_periods () =
  with_fleet ~n:2 @@ fun fl ->
  let period = 0.5 (* [Front.create]'s default [health_period_s] *) in
  with_running_front fl "healthz" @@ fun connect ->
  let c = connect () in
  let pings = 5 in
  send c (List.init pings (fun i -> Printf.sprintf {|{"id":%d,"cmd":"ping"}|} i));
  for _ = 1 to pings do
    Alcotest.(check bool) "ping answered" true (flagged "ok" (recv c))
  done;
  let answered = Unix.gettimeofday () in
  let served () = Jsonl.num_member "served" (parse (Router.Front.healthz_cached fl.fl_front)) in
  while served () <> Some (float_of_int pings) && Unix.gettimeofday () -. answered < 2.0 *. period do
    Unix.sleepf 0.01
  done;
  Alcotest.(check (option (float 0.0))) "healthz_cached counts the pings within two periods"
    (Some (float_of_int pings)) (served ());
  send c [ {|{"id":9,"cmd":"health"}|} ];
  Alcotest.(check (option (float 0.0))) "the health command counts every line, its own too"
    (Some (float_of_int (pings + 1)))
    (Jsonl.num_member "served" (recv c));
  Unix.close (fst c)

let test_client_through_router_socket () =
  with_fleet ~n:2 @@ fun fl ->
  let socket_path =
    Printf.sprintf "%s/clara_rt_%d_front.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let front_domain =
    Domain.spawn (fun () -> Router.Front.run fl.fl_front ~socket_path)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.Front.request_drain fl.fl_front;
      Domain.join front_domain)
  @@ fun () ->
  (* wait for the router socket *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  (* the stock retrying client works unchanged against a router socket *)
  let client = Serve.Client.create ~timeout_s:10.0 ~socket_path () in
  (match
     Serve.Client.request client
       [ ("cmd", Jsonl.Str "analyze"); ("nf", Jsonl.Str "tcpack");
         ("workload", Jsonl.Str "mixed") ]
   with
  | Error e -> Alcotest.failf "query via router failed: %s" (Serve.Client.error_to_string e)
  | Ok r ->
    Alcotest.(check bool) "analyze ok via router" true
      (Jsonl.member "ok" r = Some (Jsonl.Bool true));
    Alcotest.(check bool) "report present" true (Jsonl.str_member "report" r <> None));
  (match Serve.Client.request client [ ("cmd", Jsonl.Str "health") ] with
  | Error e -> Alcotest.failf "health via router failed: %s" (Serve.Client.error_to_string e)
  | Ok r -> (
    Alcotest.(check bool) "role router" true (Jsonl.str_member "role" r = Some "router");
    match Jsonl.member "workers" r with
    | Some (Jsonl.Arr ws) -> Alcotest.(check int) "workers aggregated" 2 (List.length ws)
    | _ -> Alcotest.fail "workers missing from health"));
  Serve.Client.close client

let () =
  Alcotest.run "router"
    [ ( "chash",
        [ Alcotest.test_case "fnv-1a vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "pin against independent reimplementation" `Quick
            test_pin_against_reimpl;
          Alcotest.test_case "bounded movement on membership change" `Quick
            test_bounded_movement;
          Alcotest.test_case "canary draw pure and seeded" `Quick test_canary_draw ] );
      ( "quota",
        [ Alcotest.test_case "per-tenant per-round admission" `Quick test_quota ] );
      ( "upstream",
        [ Alcotest.test_case "fragmented replies and residue" `Quick test_upstream_read_lines ] );
      ( "front",
        [ Alcotest.test_case "placement and local commands" `Quick test_target_routing;
          Alcotest.test_case "inline programs place on the program" `Quick
            test_inline_program_placement;
          Alcotest.test_case "dead worker is typed unavailable" `Quick
            test_dead_worker_is_typed_unavailable;
          Alcotest.test_case "a mute worker times out unavailable" `Quick
            test_mute_worker_times_out;
          Alcotest.test_case "quota shed is typed overloaded" `Quick
            test_quota_shed_is_typed_overloaded;
          Alcotest.test_case "one program, one key" `Quick test_respelled_program_one_key ] );
      ( "topology",
        [ Alcotest.test_case "routed serving and health fan-in" `Quick test_routed_serving;
          Alcotest.test_case "worker-kill failover and re-admission" `Quick
            test_worker_kill_failover;
          Alcotest.test_case "canary rollout, promote, rollback" `Quick test_canary_rollout;
          Alcotest.test_case "routed replies equal direct replies" `Quick test_routed_vs_direct;
          Alcotest.test_case "routed equals direct with interleaved clients" `Quick
            test_routed_vs_direct_interleaved;
          Alcotest.test_case "one client's miss does not delay another's hits" `Quick
            test_miss_does_not_delay_other_client;
          Alcotest.test_case "client unchanged through router socket" `Quick
            test_client_through_router_socket;
          Alcotest.test_case "healthz_cached within two health periods" `Quick
            test_healthz_cached_within_two_periods;
          Alcotest.test_case "a respelled program is a hit" `Quick test_respelled_program_hits ] ) ]
