(** Tests for the fast-path subsystem: the flow table (never-hit-first
    eviction over one budget, differential
    against the stamp-scan oracle in [flows_oracle.ml], the capacity-0
    degenerate), the non-allocating request scanner, pre-rendered flow entries, the
    flattened predictors (bit-identical to their boxed references), and
    the served fast/slow split itself — byte-equal replies, path-field
    correctness, and robustness (faults, shedding, deadlines) on the
    fast path.  The dune rules run this executable under both
    [CLARA_JOBS=1] and [CLARA_JOBS=4]: every assertion must hold in
    both ambient modes. *)

let with_fault ~point ~prob f =
  Obs.Fault.set ~point ~prob ~seed:1;
  Fun.protect ~finally:(fun () -> Obs.Fault.remove point) f

(* -- the flow table -- *)

(* FNV-1a/64, the hash of the retired 8-way key label.  The tests below
   still pick their hot sets with it, so the keys and the workloads they
   replay stay exactly what they were when the flow table had eight
   shards. *)
let fnv1a64 key =
  let h = ref (-3750763034362895579L) (* 0xCBF29CE484222325 *) in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    key;
  Int64.to_int !h land max_int

let test_global_budget () =
  let t : int Fastpath.Shards.t = Fastpath.Shards.create ~capacity:8 () in
  Alcotest.(check int) "the budget is the capacity" 8 (Fastpath.Shards.capacity t);
  (* 10 keys: pressure evicts only once the whole budget is full *)
  List.iteri
    (fun i key ->
      Fastpath.Shards.install t key i;
      Alcotest.(check int) "no eviction below the budget" (max 0 (i + 1 - 8))
        (Fastpath.Shards.evictions t))
    (List.init 10 (Printf.sprintf "k%d"));
  Alcotest.(check int) "the table stays at its budget" 8 (Fastpath.Shards.length t);
  Alcotest.(check int) "evictions counted" 2 (Fastpath.Shards.evictions t);
  Alcotest.(check (float 0.0)) "the occupancy gauge counts the entries" 8.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "clara_fastpath_occupancy"));
  (* a hit promotes and marks its entry, so the never-hit entry goes; a
     re-install refreshes recency and value.  At capacity 1 every new key
     evicts the one before it. *)
  List.iter
    (fun (capacity, expected) ->
      let t : string Fastpath.Shards.t = Fastpath.Shards.create ~capacity () in
      let seen = ref [] in
      let look lookup key = seen := lookup t key :: !seen in
      Fastpath.Shards.install t "a" "A";
      Fastpath.Shards.install t "b" "B";
      look Fastpath.Shards.find "a";
      Fastpath.Shards.install t "c" "C";
      look Fastpath.Shards.probe "b";
      look Fastpath.Shards.probe "a";
      Fastpath.Shards.install t "a" "A2";
      Fastpath.Shards.install t "d" "D";
      List.iter (look Fastpath.Shards.probe) [ "a"; "c"; "d" ];
      Alcotest.(check (list (option string)))
        (Printf.sprintf "capacity %d: find a, probe b, a, a, c, d" capacity)
        expected (List.rev !seen);
      Alcotest.(check int) (Printf.sprintf "capacity %d stays bounded" capacity) capacity
        (Fastpath.Shards.length t))
    [ (2, [ Some "A"; None; Some "A"; Some "A2"; None; Some "D" ]);
      (1, [ None; None; None; None; None; Some "D" ]) ]

(* The hot set of one FNV label is larger than an eighth of the budget
   (the share an 8-way split gave it) but the whole hot set fits: after
   one warm-up pass, a stream of one-shot installs between hot lookups
   never costs a hot key its entry. *)
let test_hot_set_over_one_share () =
  let t : unit Fastpath.Shards.t = Fastpath.Shards.create ~capacity:64 () in
  let by_label = Array.make 8 [] in
  List.iter
    (fun key ->
      let s = fnv1a64 key mod 8 in
      by_label.(s) <- key :: by_label.(s))
    (List.init 2000 (fun i -> Printf.sprintf "hot%d|mixed" i));
  (* 12 keys of label 0 and 4 of every other: 40 hot keys *)
  let hot =
    Array.of_list
      (List.concat
         (List.mapi (fun i ks -> List.filteri (fun k _ -> k < if i = 0 then 12 else 4) ks)
            (Array.to_list by_label)))
  in
  Alcotest.(check int) "40 hot keys" 40 (Array.length hot);
  let ask key =
    match Fastpath.Shards.find t key with
    | Some () -> true
    | None ->
      Fastpath.Shards.install t key ();
      false
  in
  Array.iter (fun k -> ignore (ask k)) hot;
  Array.iter (fun k -> ignore (ask k)) hot;
  let rng = Util.Rng.create 0x5eed and hot_misses = ref 0 in
  for i = 0 to 1999 do
    if i mod 4 = 3 then ignore (ask (Printf.sprintf "p4lite:%08x|small" i))
    else if not (ask hot.(Util.Rng.int rng (Array.length hot))) then incr hot_misses
  done;
  Alcotest.(check int) "no hot-key miss after warm-up" 0 !hot_misses;
  Alcotest.(check bool) "all 12 hot keys of label 0 stay resident" true
    (List.for_all
       (fun k -> Fastpath.Shards.probe t k <> None)
       (List.filteri (fun i _ -> i < 12) by_label.(0)))

(* The O(1) queues against the scan they replaced, on seeded
   find/probe/install sequences over a small key universe: every lookup
   outcome, every counter and the table's size after every step, and the
   contents at the end. *)
let test_matches_stamp_oracle () =
  List.iter
    (fun (capacity, seed) ->
      let t : int Fastpath.Shards.t = Fastpath.Shards.create ~capacity () in
      let o = Flows_oracle.create ~capacity in
      let rng = Util.Rng.create seed in
      let keys = Array.init 12 (Printf.sprintf "key%d") in
      let what = Printf.sprintf "capacity %d, seed %d, step %d" capacity seed in
      for step = 0 to 2999 do
        let key = keys.(Util.Rng.int rng (Array.length keys)) in
        (match Util.Rng.int rng 20 with
        | r when r < 9 ->
          Fastpath.Shards.install t key step;
          Flows_oracle.install o key step
        | r when r < 14 ->
          Alcotest.(check (option int)) (what step ^ " find") (Flows_oracle.find o key)
            (Fastpath.Shards.find t key)
        | _ ->
          Alcotest.(check (option int)) (what step ^ " probe") (Flows_oracle.probe o key)
            (Fastpath.Shards.probe t key));
        Alcotest.(check (list int)) (what step ^ " length, counters")
          [ Flows_oracle.length o; o.hits; o.misses; o.installs; o.evictions ]
          [ Fastpath.Shards.length t; Fastpath.Shards.hits t; Fastpath.Shards.misses t;
            Fastpath.Shards.installs t; Fastpath.Shards.evictions t ]
      done;
      Array.iter
        (fun key ->
          Alcotest.(check (option int)) (what 3000 ^ " contents") (Flows_oracle.probe o key)
            (Fastpath.Shards.probe t key))
        keys)
    [ (1, 1); (2, 2); (3, 3); (5, 4); (8, 5); (11, 6); (5, 7) ]

(* The eviction rule: the least-recently-used never-hit entry goes
   first; plain LRU applies only once every other entry has been hit. *)
let test_never_hit_first () =
  let run steps =
    let t : string Fastpath.Shards.t = Fastpath.Shards.create ~capacity:2 () in
    List.iter
      (function
        | `Install k -> Fastpath.Shards.install t k (String.uppercase_ascii k)
        | `Hit k ->
          Alcotest.(check (option string)) ("hit " ^ k) (Some (String.uppercase_ascii k))
            (Fastpath.Shards.probe t k))
      steps;
    List.filter
      (fun k -> Fastpath.Shards.probe t k <> None)
      [ "a"; "b"; "c"; "n"; "o"; "p" ]
  in
  (* plain LRU would evict a here: its hit is older than b's install *)
  Alcotest.(check (list string)) "a one-shot install evicts the never-hit b, not the hit a"
    [ "a"; "c" ]
    (run [ `Install "a"; `Hit "a"; `Install "b"; `Install "c" ]);
  (* no lockout: with every entry hit, a new key evicts the oldest; once
     hit itself it outlives the next one-shot install *)
  Alcotest.(check (list string)) "a new key hit once survives the next one-shot install"
    [ "n"; "o" ]
    (run [ `Install "a"; `Install "b"; `Hit "a"; `Hit "b"; `Install "n"; `Hit "n"; `Install "o" ]);
  (* a re-install keeps the hit mark: the re-installed a outlives the
     younger, never-hit b *)
  Alcotest.(check (list string)) "a re-install keeps the hit mark"
    [ "a"; "p" ]
    (run [ `Install "a"; `Hit "a"; `Install "a"; `Install "b"; `Install "p" ])

let test_degenerate_and_counters () =
  let t : int Fastpath.Shards.t = Fastpath.Shards.create ~capacity:0 () in
  Alcotest.(check int) "capacity 0 disables the table" 0 (Fastpath.Shards.capacity t);
  Fastpath.Shards.install t "a" 1;
  Alcotest.(check int) "installs are dropped" 0 (Fastpath.Shards.length t);
  Alcotest.(check (option int)) "finds miss" None (Fastpath.Shards.find t "a");
  Alcotest.(check int) "the miss is counted" 1 (Fastpath.Shards.misses t);
  Alcotest.(check int) "no installs counted" 0 (Fastpath.Shards.installs t);
  (* probe counts only hits: a probe miss must not inflate the miss
     counter (the slow path's find counts it) *)
  Alcotest.(check (option int)) "probe misses silently" None (Fastpath.Shards.probe t "a");
  Alcotest.(check int) "probe miss uncounted" 1 (Fastpath.Shards.misses t);
  (match Fastpath.Shards.create ~capacity:(-1) () with
  | (_ : int Fastpath.Shards.t) -> Alcotest.fail "negative capacity must be rejected"
  | exception Invalid_argument _ -> ());
  (* a small budget is kept exactly *)
  let t : int Fastpath.Shards.t = Fastpath.Shards.create ~capacity:3 () in
  Alcotest.(check int) "the budget is not rounded up" 3 (Fastpath.Shards.capacity t);
  List.iteri (fun i key -> Fastpath.Shards.install t key i) [ "a"; "b"; "c"; "d"; "e" ];
  Alcotest.(check int) "three entries held" 3 (Fastpath.Shards.length t)

(* -- Scan -- *)

let span_str line = function
  | Some (off, len) -> Some (String.sub line off len)
  | None -> None

let test_scanner_members () =
  let line = {|{"id":7,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"t-9"}|} in
  Alcotest.(check bool) "inside the subset" true (Fastpath.Scan.simple_object line);
  Alcotest.(check (option string)) "cmd span" (Some {|"analyze"|})
    (span_str line (Fastpath.Scan.member line "cmd"));
  Alcotest.(check (option string)) "numeric id span" (Some "7")
    (span_str line (Fastpath.Scan.member line "id"));
  Alcotest.(check bool) "span_is matches raw bytes" true
    (Fastpath.Scan.span_is line (Option.get (Fastpath.Scan.member line "cmd")) {|"analyze"|});
  (match
     Option.bind (Fastpath.Scan.member line "nf") (Fastpath.Scan.string_contents line)
   with
  | Some (off, len) -> Alcotest.(check string) "string_contents drops quotes" "tcpack" (String.sub line off len)
  | None -> Alcotest.fail "nf should scan");
  Alcotest.(check (option string)) "absent member" None
    (span_str line (Fastpath.Scan.member line "p4lite"));
  (* first match wins, as in Jsonl.member (assoc) *)
  let dup = {|{"a":1,"a":2}|} in
  Alcotest.(check (option string)) "first duplicate wins" (Some "1")
    (span_str dup (Fastpath.Scan.member dup "a"))

let test_scanner_rejects_outside_subset () =
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S outside subset" line) false
        (Fastpath.Scan.simple_object line);
      Alcotest.(check (option string)) (Printf.sprintf "%S yields no members" line) None
        (span_str line (Fastpath.Scan.member line "cmd")))
    [ {|{"cmd":"analyze","p4lite":{"tables":[]}}|} (* nested object *);
      {|{"cmd":"analyze","x":[1,2]}|} (* nested array *);
      {|{"cmd":"ana\"lyze"}|} (* escape in a string *);
      {|{"cmd":"analyze"} trailing|} (* trailing garbage *);
      {|{"cmd":"analyze",}|} (* trailing comma *);
      {|{"cmd" "analyze"}|} (* missing colon *);
      {|["cmd","analyze"]|} (* not an object *);
      "{" (* truncated *) ]

let test_canonical_scalar () =
  let canon tok =
    let line = Printf.sprintf {|{"id":%s}|} tok in
    match Fastpath.Scan.member line "id" with
    | Some span -> Fastpath.Scan.canonical_scalar line span
    | None -> false
  in
  List.iter
    (fun tok -> Alcotest.(check bool) (tok ^ " is canonical") true (canon tok))
    [ "7"; "-42"; "0"; {|"req-9"|}; {|""|}; "true"; "false"; "null"; "999999999999999" ];
  List.iter
    (fun tok -> Alcotest.(check bool) (tok ^ " is not canonical") false (canon tok))
    [ "1.5" (* prints as 1.5 but rounds through float *); "007" (* leading zeros *);
      "1e3" (* scientific *); {|"a\"b"|} (* escape *); "1000000000000000" (* 16 digits *) ]

(* -- Entry: pre-rendered bytes match Jsonl rendering -- *)

let test_entry_matches_jsonl () =
  let nf = "tcpack" and workload = "mixed" in
  let report = "line1\nline\t\"two\"\\three" in
  let entry = Fastpath.Entry.make ~nf ~workload ~report () in
  let expect ~id ~trace ~cached =
    Serve.Jsonl.to_string
      (Serve.Jsonl.Obj
         [ ("id", id); ("ok", Serve.Jsonl.Bool true); ("trace_id", Serve.Jsonl.Str trace);
           ("nf", Serve.Jsonl.Str nf); ("workload", Serve.Jsonl.Str workload);
           ("cached", Serve.Jsonl.Bool cached); ("path", Serve.Jsonl.Str "slow");
           ("report", Serve.Jsonl.Str report) ])
  in
  Alcotest.(check string) "render matches Jsonl (numeric id)"
    (expect ~id:(Serve.Jsonl.Num 7.0) ~trace:"t-1" ~cached:false)
    (Fastpath.Entry.render entry ~id:"7" ~trace:"t-1" ~cached:false ~path:"slow");
  Alcotest.(check string) "render matches Jsonl (null id)"
    (expect ~id:Serve.Jsonl.Null ~trace:"t-2" ~cached:true)
    (Fastpath.Entry.render entry ~id:"" ~trace:"t-2" ~cached:true ~path:"slow");
  let line = {|{"id":"req-9","trace_id":"abc"}|} in
  let id_off, id_len = Option.get (Fastpath.Scan.member line "id") in
  let trace_off, trace_len =
    Option.get
      (Option.bind (Fastpath.Scan.member line "trace_id") (Fastpath.Scan.string_contents line))
  in
  let b = Buffer.create 64 in
  Fastpath.Entry.render_into b entry ~id_src:line ~id_off ~id_len ~trace_src:line ~trace_off
    ~trace_len ~cached:true ~path:"slow";
  Alcotest.(check string) "render_into splices raw tokens"
    (expect ~id:(Serve.Jsonl.Str "req-9") ~trace:"abc" ~cached:true)
    (Buffer.contents b)

(* -- flattened predictors: bit-identical to the boxed references -- *)

let synth_xy n =
  let xs =
    Array.init n (fun i ->
        [| float_of_int (i mod 7); float_of_int (i mod 5) *. 0.5; float_of_int (i mod 3) |])
  in
  let ys = Array.map (fun x -> (2.0 *. x.(0)) -. (1.5 *. x.(1)) +. (x.(2) *. x.(2))) xs in
  (xs, ys)

let test_flat_tree_ensembles () =
  let xs, ys = synth_xy 80 in
  let probes = Array.init 200 (fun i -> [| float_of_int (i mod 11); float_of_int (i mod 6) *. 0.25; float_of_int (i mod 4) |]) in
  let tree = Mlkit.Tree.grow xs ys in
  let ft = Mlkit.Tree.Flat.of_tree tree in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "flat tree bit-identical" true
        (Float.equal (Mlkit.Tree.predict tree x) (Mlkit.Tree.Flat.eval ft x)))
    probes;
  let gbdt = Mlkit.Tree.gbdt_fit ~n_stages:12 xs ys in
  let fg = Mlkit.Tree.Flat.of_gbdt gbdt in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "flat gbdt bit-identical" true
        (Float.equal (Mlkit.Tree.gbdt_predict gbdt x) (Mlkit.Tree.Flat.gbdt_eval fg x)))
    probes;
  let forest = Mlkit.Tree.forest_fit ~n_trees:7 xs ys in
  let ff = Mlkit.Tree.Flat.of_forest forest in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "flat forest bit-identical" true
        (Float.equal (Mlkit.Tree.forest_predict forest x) (Mlkit.Tree.Flat.forest_eval ff x)))
    probes

let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let test_compiled_pipeline_identical () =
  let m = Lazy.force models in
  let compiled = Clara.Pipeline.compile m in
  let spec = Serve.Server.mixed_spec in
  List.iter
    (fun name ->
      let elt = Nf_lang.Corpus.find name in
      Alcotest.(check string)
        (name ^ ": compiled report byte-identical")
        (Clara.Pipeline.report m elt spec)
        (Clara.Pipeline.report_compiled compiled elt spec);
      (* scratch reuse: a second evaluation must not be polluted by the
         first *)
      Alcotest.(check string)
        (name ^ ": compiled report stable on reuse")
        (Clara.Pipeline.report m elt spec)
        (Clara.Pipeline.report_compiled compiled elt spec))
    [ "tcpack"; "udpipencap"; "anonipaddr" ];
  let elt = Nf_lang.Corpus.find "tcpack" in
  let direct = Clara.Predictor.predict_element m.Clara.Pipeline.predictor elt in
  let pc = Clara.Predictor.compile m.Clara.Pipeline.predictor in
  Alcotest.(check bool) "compiled per-block predictions bit-identical" true
    (List.for_all2
       (fun (b1, p1, m1) (b2, p2, m2) -> b1 = b2 && Float.equal p1 p2 && Float.equal m1 m2)
       direct
       (Clara.Predictor.predict_element_compiled pc elt))

(* -- the served fast/slow split -- *)

let mk_server ?(cache_capacity = 8) ?max_pending () =
  Serve.Server.create ~cache_capacity ?max_pending (Lazy.force models)

let parse_reply line =
  match Serve.Jsonl.of_string line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg

let is_ok reply = Serve.Jsonl.member "ok" reply = Some (Serve.Jsonl.Bool true)
let path_of line = Serve.Jsonl.str_member "path" (parse_reply line)

(* Replace the single occurrence of [sub] in [s] with [by]. *)
let subst s sub by =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  match go 0 with
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
  | None -> Alcotest.failf "%S does not contain %S" s sub

let fast_marker = {|"cached":true,"path":"fast"|}
let hit_marker = {|"cached":true,"path":"slow"|}
let fresh_marker = {|"cached":false,"path":"slow"|}

let test_fast_slow_byte_equality () =
  let s = mk_server () in
  let line = {|{"id":7,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"tt"}|} in
  let fresh = Serve.Server.handle_request s line in
  Alcotest.(check (option string)) "install is slow" (Some "slow") (path_of fresh);
  let fast = Serve.Server.handle_request s line in
  Alcotest.(check (option string)) "repeat is fast" (Some "fast") (path_of fast);
  (* the same request with a member outside the scanner subset takes the
     slow path — but still hits the cache *)
  let slow_hit =
    Serve.Server.handle_request s
      {|{"id":7,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"tt","x":"a\\b"}|}
  in
  Alcotest.(check (option string)) "escaped member forces slow" (Some "slow") (path_of slow_hit);
  Alcotest.(check bool) "slow hit is cached" true
    (Serve.Jsonl.member "cached" (parse_reply slow_hit) = Some (Serve.Jsonl.Bool true));
  (* byte equality modulo exactly the cached/path markers *)
  Alcotest.(check string) "fast reply == slow cache hit (modulo path)"
    slow_hit
    (subst fast fast_marker hit_marker);
  Alcotest.(check string) "fast reply == fresh reply (modulo cached+path)"
    fresh
    (subst fast fast_marker fresh_marker)

let test_fast_path_id_variants () =
  let s = mk_server () in
  ignore (Serve.Server.handle_request s {|{"cmd":"analyze","nf":"tcpack"}|});
  (* workload defaulted to mixed: the warm entry answers these too *)
  let string_id = Serve.Server.handle_request s {|{"id":"req-9","cmd":"analyze","nf":"tcpack"}|} in
  Alcotest.(check (option string)) "string id rides the fast path" (Some "fast")
    (path_of string_id);
  Alcotest.(check bool) "string id echoed" true
    (Serve.Jsonl.member "id" (parse_reply string_id) = Some (Serve.Jsonl.Str "req-9"));
  let no_id = Serve.Server.handle_request s {|{"cmd":"analyze","nf":"tcpack"}|} in
  Alcotest.(check bool) "absent id echoes null" true
    (Serve.Jsonl.member "id" (parse_reply no_id) = Some Serve.Jsonl.Null);
  Alcotest.(check (option string)) "absent id rides the fast path" (Some "fast") (path_of no_id);
  let op = Serve.Server.handle_request s {|{"id":1,"op":"analyze","nf":"tcpack"}|} in
  Alcotest.(check (option string)) "op alias rides the fast path" (Some "fast") (path_of op);
  (* non-canonical ids (would not round-trip byte-identically) fall back *)
  let float_id = Serve.Server.handle_request s {|{"id":1.5,"cmd":"analyze","nf":"tcpack"}|} in
  Alcotest.(check (option string)) "non-canonical id falls back to slow" (Some "slow")
    (path_of float_id);
  Alcotest.(check bool) "fallback still answers from cache" true
    (Serve.Jsonl.member "cached" (parse_reply float_id) = Some (Serve.Jsonl.Bool true));
  (* unknown workloads and unknown NFs never fast-match *)
  let bad = Serve.Server.handle_request s {|{"cmd":"analyze","nf":"tcpack","workload":"bogus"}|} in
  Alcotest.(check bool) "unknown workload still rejected" false (is_ok (parse_reply bad));
  let trace =
    Serve.Server.handle_request s {|{"id":2,"cmd":"analyze","nf":"tcpack","trace_id":"zz"}|}
  in
  Alcotest.(check (option string)) "client trace id echoed on the fast path" (Some "zz")
    (Serve.Jsonl.str_member "trace_id" (parse_reply trace))

(* The fast path accepts exactly the workload names the slow path does:
   each accepted name answers a warm hit fast (spelled out, and for the
   default also omitted); an unknown one falls through to the slow
   path's typed error. *)
let test_fast_path_workload_names () =
  let s = mk_server ~cache_capacity:64 () in
  List.iter
    (fun w ->
      Alcotest.(check bool) (w ^ " is accepted") true (Result.is_ok (Serve.Server.workload_named w));
      let line = Printf.sprintf {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"%s"}|} w in
      Alcotest.(check (option string)) (w ^ ": install is slow") (Some "slow")
        (path_of (Serve.Server.handle_request s line));
      Alcotest.(check (option string)) (w ^ ": warm hit is fast") (Some "fast")
        (path_of (Serve.Server.handle_request s line)))
    [ "mixed"; "large"; "small" ];
  Alcotest.(check (option string)) "omitted workload is mixed, fast" (Some "fast")
    (path_of (Serve.Server.handle_request s {|{"id":2,"cmd":"analyze","nf":"tcpack"}|}));
  let bad =
    parse_reply (Serve.Server.handle_request s {|{"id":3,"cmd":"analyze","nf":"tcpack","workload":"bogus"}|})
  in
  Alcotest.(check bool) "unknown workload is an error" false (is_ok bad);
  Alcotest.(check (option string)) "the slow path's typed error"
    (Some "unknown workload \"bogus\" (one of: mixed, large, small)")
    (Serve.Jsonl.str_member "error" bad)

let test_fast_path_robustness () =
  let s = mk_server ~max_pending:1 () in
  let line = {|{"id":1,"cmd":"analyze","nf":"tcpack","workload":"mixed"}|} in
  ignore (Serve.Server.handle_request s line);
  Alcotest.(check (option string)) "warm" (Some "fast")
    (path_of (Serve.Server.handle_request s line));
  (* an armed jsonl.parse fault disables the fast path: the reply must be
     the injected parse error, not a stale cached answer (parsed only
     after disarming — the test's own parser shares the fault point) *)
  let faulted =
    with_fault ~point:"jsonl.parse" ~prob:1.0 (fun () -> Serve.Server.handle_request s line)
  in
  let r = parse_reply faulted in
  Alcotest.(check bool) "armed parse fault short-circuits the fast path" false (is_ok r);
  (match Serve.Jsonl.str_member "error" r with
  | Some msg ->
    Alcotest.(check bool) "the error is the injected fault" true
      (String.length msg >= 14 && String.sub msg 0 14 = "malformed JSON")
  | None -> Alcotest.fail "fault reply carries an error");
  (* the fault disarmed, the fast path resumes *)
  Alcotest.(check (option string)) "fast path resumes once disarmed" (Some "fast")
    (path_of (Serve.Server.handle_request s line));
  (* admission control applies before the fast path: the second line of a
     batch is shed even though it would have been a warm hit *)
  (match Serve.Server.process_batch s [ line; line ] with
  | [ first; second ] ->
    Alcotest.(check (option string)) "admitted line is fast" (Some "fast") (path_of first);
    let r2 = parse_reply second in
    Alcotest.(check bool) "overflow line is shed" true
      (Serve.Jsonl.member "overloaded" r2 = Some (Serve.Jsonl.Bool true))
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  (* deadlines: a warm hit answers inside any budget (same contract as
     the pre-split cache hit) *)
  let tight = {|{"id":9,"cmd":"analyze","nf":"tcpack","workload":"mixed","deadline_ms":10000}|} in
  Alcotest.(check (option string)) "deadline request still rides the fast path" (Some "fast")
    (path_of (Serve.Server.handle_request s tight))

let test_fastpath_metrics_exposed () =
  let s = mk_server () in
  let line = {|{"id":1,"cmd":"analyze","nf":"udpipencap","workload":"mixed"}|} in
  ignore (Serve.Server.handle_request s line);
  ignore (Serve.Server.handle_request s line);
  let r = parse_reply (Serve.Server.handle_request s {|{"id":2,"cmd":"metrics"}|}) in
  match Serve.Jsonl.str_member "metrics" r with
  | None -> Alcotest.fail "metrics reply carries an exposition"
  | Some text ->
    List.iter
      (fun needle ->
        let n = String.length text and m = String.length needle in
        let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
        Alcotest.(check bool) (needle ^ " exposed") true (go 0))
      [ "clara_fastpath_hits_total"; "clara_fastpath_misses_total";
        "clara_slowpath_installs_total"; "clara_fastpath_evictions_total";
        "clara_fastpath_occupancy"; "clara_predict_memo_hits_total";
        "clara_predict_memo_misses_total" ]

(* -- exact work on a churn replay --

   A seeded replay in the shape of churn traffic: hot corpus keys, at
   most seven per FNV label (so they would also fit an 8-way split of
   the 64-entry budget), plus one fresh inline program per ten lines, in
   batches of eight through [process_batch].  Once every hot key has
   been hit, the never-hit-first eviction rule keeps them resident, so
   from then on the fresh programs are the only misses.  Cache and memo
   misses are deterministic counts, pinned exactly; the dune rules run
   this under [CLARA_JOBS=1] and [=4] against the same figures. *)

let churn_cache_misses = 146
let churn_memo_misses = 176

let test_churn_exact_work () =
  let s = Serve.Server.create ~cache_capacity:64 (Lazy.force models) in
  let rng = Util.Rng.create 0xc4a2 in
  let hot =
    let per_label = Array.make 8 0 in
    let keys =
      List.concat_map
        (fun wl -> List.map (fun nf -> (nf, wl)) (Serve.Server.corpus_names ()))
        [ "mixed"; "large"; "small" ]
      |> List.map (fun k -> (Util.Rng.int rng 1_000_000, k))
      |> List.sort compare |> List.map snd
    in
    List.filter
      (fun (nf, wl) ->
        let l = fnv1a64 (Serve.Proto.flow_key nf wl) mod 8 in
        per_label.(l) < 7 && (per_label.(l) <- per_label.(l) + 1; true))
      keys
    |> Array.of_list
  in
  let memo_misses = Obs.Metrics.counter "clara_predict_memo_misses_total" in
  let memo0 = Obs.Metrics.counter_value memo_misses in
  let fields = [| "ip_src"; "ip_dst"; "tcp_dport" |] in
  let line i =
    if i mod 10 = 9 then
      ( None,
        Printf.sprintf
          {|{"id":%d,"cmd":"analyze","p4lite":{"name":"churn%d","tables":[{"name":"t","keys":["%s"],"actions":["drop","forward:1"],"default":"forward:0","size":%d}]}}|}
          i i fields.(i mod 3) (16 lsl (i mod 5)) )
    else
      let nf, wl = hot.(Util.Rng.int rng (Array.length hot)) in
      (Some (nf, wl), Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"}|} i nf wl)
  in
  let lines = List.init 800 line in
  let hit = Hashtbl.create 32 and late_misses = ref 0 in
  let rec batches = function
    | [] -> ()
    | ls ->
      let batch = List.filteri (fun i _ -> i < 8) ls in
      let rest = List.filteri (fun i _ -> i >= 8) ls in
      let all_hit = Hashtbl.length hit = Array.length hot in
      List.iter2
        (fun (hot_key, _) reply ->
          let r = parse_reply reply in
          Alcotest.(check bool) "every churn line is answered" true (is_ok r);
          match hot_key with
          | Some k ->
            if Serve.Jsonl.member "cached" r = Some (Serve.Jsonl.Bool true) then Hashtbl.replace hit k ()
            else if all_hit then incr late_misses
          | None -> ())
        batch
        (Serve.Server.process_batch s (List.map snd batch));
      batches rest
  in
  batches lines;
  Alcotest.(check int) "every hot key was hit" (Array.length hot) (Hashtbl.length hit);
  Alcotest.(check int) "no hot-key miss once every hot key was hit" 0 !late_misses;
  Alcotest.(check int) "cache misses" churn_cache_misses (Serve.Server.cache_misses s);
  Alcotest.(check int) "memo misses" churn_memo_misses
    (int_of_float (Obs.Metrics.counter_value memo_misses -. memo0))

(* A block's prediction depends only on its tokens, so one corpus NF's
   keys under different workloads carry the same blocks.  The server has
   one compiled predictor, so the second workload's analysis predicts
   nothing anew although its key is another one. *)
let test_block_predicted_once () =
  let s = Serve.Server.create ~cache_capacity:64 (Lazy.force models) in
  let memo_misses = Obs.Metrics.counter "clara_predict_memo_misses_total" in
  let analyze wl =
    let before = Obs.Metrics.counter_value memo_misses in
    let reply =
      Serve.Server.handle_request s
        (Printf.sprintf {|{"id":1,"cmd":"analyze","nf":"cmsketch","workload":"%s"}|} wl)
    in
    Alcotest.(check bool) (wl ^ " answered") true (is_ok (parse_reply reply));
    int_of_float (Obs.Metrics.counter_value memo_misses -. before)
  in
  Alcotest.(check bool) "the first analysis predicts its blocks" true (analyze "mixed" > 0);
  Alcotest.(check int) "the second workload adds no memo miss" 0 (analyze "large")

let () =
  Alcotest.run "fastpath"
    [ ( "shards",
        [ Alcotest.test_case "one budget over every key" `Quick test_global_budget;
          Alcotest.test_case "hot set over one shard's share but within the budget" `Quick
            test_hot_set_over_one_share;
          Alcotest.test_case "queues match the stamp-scan oracle" `Quick
            test_matches_stamp_oracle;
          Alcotest.test_case "never-hit entries evicted first" `Quick test_never_hit_first;
          Alcotest.test_case "degenerate capacities and counters" `Quick
            test_degenerate_and_counters ] );
      ( "scan",
        [ Alcotest.test_case "member spans" `Quick test_scanner_members;
          Alcotest.test_case "subset rejections" `Quick test_scanner_rejects_outside_subset;
          Alcotest.test_case "canonical scalars" `Quick test_canonical_scalar ] );
      ( "entry",
        [ Alcotest.test_case "pre-rendered bytes match Jsonl" `Quick test_entry_matches_jsonl ] );
      ( "compiled",
        [ Alcotest.test_case "flat tree ensembles bit-identical" `Quick test_flat_tree_ensembles;
          Alcotest.test_case "compiled pipeline byte-identical" `Quick
            test_compiled_pipeline_identical ] );
      ( "served",
        [ Alcotest.test_case "fast/slow byte equality" `Quick test_fast_slow_byte_equality;
          Alcotest.test_case "id and trace variants" `Quick test_fast_path_id_variants;
          Alcotest.test_case "accepted workload names" `Quick test_fast_path_workload_names;
          Alcotest.test_case "faults, shedding, deadlines" `Quick test_fast_path_robustness;
          Alcotest.test_case "fastpath metrics exposed" `Quick test_fastpath_metrics_exposed;
          Alcotest.test_case "churn replay: exact misses" `Quick test_churn_exact_work;
          Alcotest.test_case "a block is predicted once per worker, whatever its key" `Quick
            test_block_predicted_once ] ) ]
