(** Cold-analysis equivalence and allocation.

    - The resolved host interpreter against the tree-walking oracle
      ({!Interp_oracle}): verdicts, profile contents in each table's
      iteration order, final state and packets, and raised exceptions, on
      every corpus key in both data-structure modes, on seeded P4lite
      programs, on synthesized programs (whole runs and packet by packet),
      and on failing elements.
    - {!Clara.Algo_id}'s once-per-component features against the per-key
      oracle ({!Algo_oracle}): model bytes, labels, feature vectors and
      mined gram order.
    - The compiled predictor's per-block memo against the memo-free
      {!Clara.Pipeline.report}: byte-equal reports with a cold memo, a
      warm one and in reverse order, and a memo that stays within its
      token budget while every value equals {!Clara.Predictor.predict_block}.
    - An exact ceiling on minor-heap words per cold analysis. *)

open Nf_lang

(* -- interpreter differential -- *)

(* A profile as lines, each table in its [Hashtbl.iter] order. *)
let dump (p : Interp.profile) =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  Hashtbl.iter (fun sid c -> add "stmt %d %d" sid c) p.Interp.stmt_counts;
  Hashtbl.iter (fun sid c -> add "cond %d %d" sid c) p.Interp.cond_counts;
  Hashtbl.iter (fun (g, sid) c -> add "read %s@%d %d" g sid c) p.Interp.global_reads;
  Hashtbl.iter (fun (g, sid) c -> add "write %s@%d %d" g sid c) p.Interp.global_writes;
  Hashtbl.iter (fun name c -> add "api %s %d" name c) p.Interp.api_counts;
  Hashtbl.iter (fun m (ops, probes) -> add "map %s %d %d" m !ops !probes) p.Interp.map_ops;
  add "packets %d emitted %d dropped %d" p.Interp.packets p.Interp.emitted p.Interp.dropped;
  List.rev !out

let outcome f =
  match f () with
  | Interp.Emitted port -> Printf.sprintf "emit %d" port
  | Interp.Dropped -> "drop"
  | exception e -> "raise " ^ Printexc.to_string e

(* Run [elt] over two fresh copies of a trace, through the interpreter and
   the oracle, and require identical observations; returns the verdicts.
   [install] programs both stores before traffic. *)
let agree ?(install = fun (_ : Interp.t) (_ : State.t) -> ()) ~via what mode elt packets =
  let pa = packets () and pb = packets () in
  let a = Interp.create ~mode elt and b = Interp_oracle.create ~mode elt in
  install a b.Interp_oracle.state;
  let ra, rb =
    match via with
    | `Run ->
      let whole run = [ outcome (fun () -> ignore (run ()); Interp.Dropped) ] in
      (whole (fun () -> Interp.run a pa), whole (fun () -> Interp_oracle.run b pb))
    | `Push ->
      ( List.map (fun p -> outcome (fun () -> Interp.push a p)) pa,
        List.map (fun p -> outcome (fun () -> Interp_oracle.push b p)) pb )
  in
  Alcotest.(check (list string)) (what ^ ": verdicts") rb ra;
  Alcotest.(check (list string)) (what ^ ": profile") (dump b.Interp_oracle.profile) (dump a.Interp.profile);
  Alcotest.(check bool) (what ^ ": state") true (a.Interp.state = b.Interp_oracle.state);
  Alcotest.(check bool) (what ^ ": packets") true (pa = pb);
  ra

let spec_of wl = match Serve.Server.workload_named wl with Ok s -> s | Error e -> failwith e
let workloads = [ "mixed"; "large"; "small" ]
let mode_name = function State.Nic -> "nic" | State.Host -> "host"

let test_corpus_keys () =
  List.iter
    (fun wl ->
      let spec = spec_of wl in
      List.iter
        (fun nf ->
          List.iter
            (fun mode ->
              ignore
                (agree ~via:`Run
                   (Printf.sprintf "%s|%s/%s" nf wl (mode_name mode))
                   mode (Corpus.find nf)
                   (fun () -> Workload.generate spec)))
            [ State.Nic; State.Host ])
        (Serve.Server.corpus_names ()))
    workloads

(* Seeded P4lite programs in the shape the service accepts inline: 1-3
   exact-match tables over header keys. *)
let key_fields = Ast.[| Ip_src; Ip_dst; Ip_proto; Tcp_sport; Tcp_dport; Udp_dport; Eth_type |]

let action_pool =
  P4lite.
    [| Drop_packet; No_op; Decrement_ttl; Forward 1; Forward 2; Count "hits"; Set_field Ast.Ip_tos |]

let pick rng a = a.(Util.Rng.int rng (Array.length a))

let p4lite_program rng k =
  let table i =
    { P4lite.t_name = Printf.sprintf "t%d" i;
      keys = List.sort_uniq compare (List.init (1 + Util.Rng.int rng 2) (fun _ -> pick rng key_fields));
      actions = List.sort_uniq compare (List.init (1 + Util.Rng.int rng 3) (fun _ -> pick rng action_pool));
      default_action = pick rng action_pool;
      size = pick rng [| 16; 32; 64; 128; 256 |] }
  in
  { P4lite.p_name = Printf.sprintf "fresh%d" k; pipeline = List.init (1 + Util.Rng.int rng 3) table }

(* Entries keyed on fields of packets in the trace, so lookups hit. *)
let p4lite_entries rng (program : P4lite.program) trace =
  let trace = Array.of_list trace in
  List.concat_map
    (fun (t : P4lite.table) ->
      List.init 3 (fun _ ->
          let pkt = pick rng trace in
          let k = Util.Rng.int rng (List.length t.P4lite.actions) in
          ( t.P4lite.t_name,
            List.map (Packet.get_field pkt) t.P4lite.keys,
            List.nth t.P4lite.actions k,
            k + 1,
            Util.Rng.int rng 4 )))
    program.P4lite.pipeline

let test_p4lite_programs () =
  let rng = Util.Rng.create 0x4b1e in
  for k = 0 to 239 do
    let program = p4lite_program rng k in
    let spec = spec_of (List.nth workloads (k mod 3)) in
    let entries = if k mod 2 = 0 then [] else p4lite_entries rng program (Workload.generate spec) in
    let install a oracle_state =
      List.iter
        (fun (table, key, act, aid, param) ->
          P4lite.table_add program a ~table ~key act ~param;
          ignore (State.insert (State.map_of oracle_state table) (Array.of_list key) [| aid; param |]))
        entries
    in
    let mode = if k mod 4 < 2 then State.Nic else State.Host in
    ignore
      (agree ~install ~via:`Run (Printf.sprintf "p4lite %d" k) mode (P4lite.compile program) (fun () ->
           Workload.generate spec))
  done

let test_synth_programs () =
  let spec = { Workload.default with Workload.n_packets = 120; proto = Workload.Mixed } in
  List.iteri
    (fun k elt ->
      List.iter
        (fun mode ->
          List.iter
            (fun (via, name) ->
              ignore
                (agree ~via
                   (Printf.sprintf "synth %d/%s/%s" k (mode_name mode) name)
                   mode elt
                   (fun () -> Workload.generate spec)))
            [ (`Run, "run"); (`Push, "push") ])
        [ State.Nic; State.Host ])
    (Synth.Generator.batch ~seed:77 60)

(* Edge cases, most failing mid-packet: counts made before a failure must
   survive it, and the failure must be the same exception. *)
let failing_elements () =
  let open Build in
  let state =
    [ scalar "n"; array "arr" 4; vector "v";
      map_decl "m" ~key_widths:[ 32 ] ~val_fields:[ ("x", 32) ] ]
  in
  let el name body = element name ~state body in
  (* a read of a known global beside each failing access: its count must
     survive the failure *)
  let r = g "n" + i 1 in
  [ element "spin" ~state:[ scalar "n" ] [ let_ "x" (i 1); while_ (l "x" > i 0) [ set_g "n" (g "n" + i 1) ] ];
    element "spin_for" [ for_ "j" (i 0) (i 10) [ let_ "j" (i 0) ] ];
    el "no_sub" [ set_g "n" r; call "nope"; emit 0 ];
    element "dup_sub" ~state
      ~subs:[ ("s", [ set_g "n" (g "n" + i 1); return_ ]); ("s", [ drop ]) ]
      [ call "s"; emit 1 ];
    el "ghost_read" [ set_g "n" r; let_ "x" (g "ghost" + r); emit 0 ];
    el "ghost_write" [ set_g "ghost" r; emit 0 ];
    el "ghost_arr_get" [ let_ "x" (arr_get "ghost" r); emit 0 ];
    el "ghost_arr_set" [ arr_set "ghost" r r; emit 0 ];
    el "arr_as_scalar" [ set_g "arr" r; emit 0 ];
    el "ghost_map_find" [ map_find "ghost" [ r; g "n" ] "f"; emit 0 ];
    el "ghost_map_read" [ map_find "m" [ r ] "f"; map_read "ghost" "x" "y"; emit 0 ];
    el "ghost_map_write" [ map_write "ghost" "x" r; emit 0 ];
    el "ghost_map_insert" [ map_insert "ghost" [ r ] [ g "n" ]; emit 0 ];
    el "ghost_map_erase" [ map_erase "ghost"; emit 0 ];
    el "bad_field" [ map_insert "m" [ r ] [ r ]; map_find "m" [ r ] "f"; map_read "m" "nope" "y"; emit 0 ];
    el "ghost_vec_append" [ vec_append "ghost" r; emit 0 ];
    el "ghost_vec_get" [ vec_get "ghost" r "y"; emit 0 ];
    el "ghost_vec_set" [ vec_set "ghost" r (g "n"); emit 0 ];
    el "ghost_vec_len" [ let_ "x" (vec_len "ghost" + r); emit 0 ];
    el "bad_api" [ set_g "n" r; api_stmt "no_such_api" [ r ]; emit 0 ];
    el "action_local" [ let_ "__action" (i 1003); set_g "n" (l "__action") ];
    el "payload_order" [ set_payload (g "n") (arr_get "arr" (i 1)); vec_set "v" (g "n") (arr_get "arr" (i 2)); emit 0 ] ]

let test_failures () =
  let raises = List.exists (String.starts_with ~prefix:"raise ") in
  List.iter
    (fun elt ->
      let name = elt.Ast.name in
      let expect_raise =
        not (List.mem name [ "dup_sub"; "action_local"; "payload_order" ])
      in
      List.iter
        (fun via ->
          let verdicts = agree ~via name State.Nic elt (fun () -> List.init 3 (fun _ -> Packet.create ())) in
          Alcotest.(check bool) (name ^ ": raises") expect_raise (raises verdicts))
        [ `Run; `Push ])
    (failing_elements ())

(* The shapes the interpreter compiles to one closure each (a lookup
   keyed by header fields, a branch on a local against a constant, a
   counter bump), beside near misses that take the general path, maps
   whose capacities are and are not powers of two, and every resolved
   API call, in both modes.  [Some true] marks an element that must
   raise. *)
let shape_elements () =
  let open Build in
  let state =
    [ scalar "n"; scalar ~init:0xfffffffe "wrap"; scalar "m";
      map_decl "pow2" ~key_widths:[ 32; 16 ] ~val_fields:[ ("x", 32) ] ~capacity:16;
      map_decl "odd" ~key_widths:[ 32 ] ~val_fields:[ ("x", 32); ("y", 32) ] ~capacity:10 ]
  in
  let el name body = element name ~state body in
  let bump name = set_g name (g name + i 1) in
  let branch name cmp = el name [ let_ "x" (hdr Ast.Ip_ttl land i 127); if_ (cmp (l "x") (i 64)) [ bump "n" ] [ bump "m"; drop ] ] in
  [ (el "counter" [ bump "n"; set_g "wrap" (g "wrap" + i 3); set_g "n" (g "m" + i 1); set_g "m" (g "m" + g "n"); emit 0 ], false);
    (el "ghost_counter" [ bump "n"; bump "ghost"; emit 0 ], true);
    (branch "eq" ( = ), false);
    (branch "ne" ( <> ), false);
    (branch "lt" ( < ), false);
    (branch "le" ( <= ), false);
    (branch "gt" ( > ), false);
    (branch "ge" ( >= ), false);
    (el "unset_local" [ if_ (l "never" = i 0) [ bump "n" ] [ drop ]; if_ (i 0 = l "never") [ bump "m" ] []; emit 0 ], false);
    ( el "hdr_find"
        [ map_find "pow2" [ hdr Ast.Ip_src; hdr Ast.Tcp_sport ] "f";
          if_ (l "f" = i 0)
            [ map_insert "pow2" [ hdr Ast.Ip_src; hdr Ast.Tcp_sport ] [ g "n" ]; bump "n" ]
            [ map_read "pow2" "x" "v"; map_write "pow2" "x" (l "v" + i 1); when_ (l "v" > i 2) [ map_erase "pow2" ] ];
          map_find "odd" [ hdr Ast.Ip_dst ] "h";
          if_ (l "h" <> i 0) [ map_read "odd" "y" "w" ] [ map_insert "odd" [ hdr Ast.Ip_dst ] [ g "m"; hdr Ast.Ip_ttl ]; bump "m" ];
          map_find "odd" [ hdr Ast.Ip_dst + i 1 ] "k";
          emit 0 ],
      false );
    (el "ghost_hdr_find" [ bump "n"; map_find "ghost" [ hdr Ast.Ip_src; hdr Ast.Ip_dst ] "f"; emit 0 ], true);
    ( el "apis"
        [ let_ "a" (api "hash32" [ hdr Ast.Ip_src; g "n"; i 3 ]);
          let_ "b" (api "hash32" []);
          let_ "c" (api "crc32_payload" [ i 0; i 8 ] + api "crc32_payload" [] + api "crc16_payload" [ i 2; i 4 ]);
          let_ "d" (api "crc16_payload" [ i 1 ] + api "checksum_ip" [] + api "rand16" [] + api "now" []);
          let_ "e" (api "min" [ l "a"; g "m" ] + api "max" [ l "b"; hdr Ast.Ip_ttl ]);
          let_ "f" (api "lpm_lookup" [ hdr Ast.Ip_dst ] + api "flow_cache_lookup" [ hdr Ast.Ip_dst ]);
          set_g "n" (l "a" + l "b" + l "c" + l "d" + l "e" + l "f");
          api_stmt "csum_incr_update" [ hdr Ast.Ip_ttl; l "f" ];
          api_stmt "checksum_update_ip" [];
          emit 0 ],
      false );
    (el "api_arity" [ bump "n"; let_ "x" (api "min" [ g "n" ]); emit 0 ], true);
    (* arguments evaluate left to right; an insert's values before its key *)
    (el "api_arg_order" [ let_ "x" (api "hash32" [ g "n"; g "ghost"; g "m" ]); emit 0 ], true);
    (el "insert_order" [ map_insert "pow2" [ g "ghost"; g "m" ] [ g "n"; g "wrap" ]; emit 0 ], true);
    (el "api_stmt_arity" [ bump "n"; api_stmt "csum_incr_update" [ g "n" ]; emit 0 ], true) ]

let test_shapes () =
  let spec = { Workload.default with Workload.n_packets = 200; n_flows = 24; proto = Workload.Mixed } in
  List.iter
    (fun (elt, expect_raise) ->
      List.iter
        (fun mode ->
          List.iter
            (fun via ->
              let what = Printf.sprintf "%s/%s" elt.Ast.name (mode_name mode) in
              let verdicts = agree ~via what mode elt (fun () -> Workload.generate spec) in
              Alcotest.(check bool)
                (what ^ ": raises")
                expect_raise
                (List.exists (String.starts_with ~prefix:"raise ") verdicts))
            [ `Run; `Push ])
        [ State.Nic; State.Host ])
    (shape_elements ())

(* -- Algo_id equivalence -- *)

let modes : Clara.Algo_id.feature_mode list = [ `Both; `Spe_only; `Manual_only ]

let test_algo_train_bytes () =
  List.iter
    (fun (negatives, mode) ->
      let corpus = Clara.Algo_corpus.labeled ~negatives () in
      Alcotest.(check string)
        (Printf.sprintf "model bytes at ~negatives:%d" negatives)
        (Persist.Codec.encode_algo (Algo_oracle.train ~mode ~corpus ()))
        (Persist.Codec.encode_algo (Clara.Algo_id.train ~mode ~corpus ())))
    ((60, `Both) :: List.map (fun mode -> (20, mode)) modes)

let algo_inputs () =
  let rng = Util.Rng.create 0xa160 in
  Corpus.all () @ List.init 40 (fun k -> P4lite.compile (p4lite_program rng k))

let test_algo_detect_and_features () =
  let corpus = Clara.Algo_corpus.labeled ~negatives:20 () in
  let labels l = List.map (fun (c, a) -> c ^ ":" ^ Clara.Algo_corpus.label_name a) l in
  let inputs = algo_inputs () in
  List.iter
    (fun mode ->
      let m = Clara.Algo_id.train ~mode ~corpus () in
      List.iter
        (fun (elt : Ast.element) ->
          let name = elt.Ast.name in
          Alcotest.(check (list string)) (name ^ ": detect")
            (labels (Algo_oracle.detect m elt))
            (labels (Clara.Algo_id.detect m elt));
          Alcotest.(check string) (name ^ ": classify")
            (Clara.Algo_corpus.label_name (Algo_oracle.classify m elt))
            (Clara.Algo_corpus.label_name (Clara.Algo_id.classify m elt));
          List.iter
            (fun cls ->
              Alcotest.(check (array (float 0.0)))
                (name ^ ": class features " ^ Clara.Algo_corpus.label_name cls)
                (Algo_oracle.class_features m cls elt)
                (Clara.Algo_id.class_features m cls elt))
            Clara.Algo_corpus.[ Crc; Lpm; Checksum; Other ])
        inputs)
    modes

let test_mined_gram_order () =
  let seqs = List.map Clara.Algo_id.opcode_seq (Corpus.all ()) in
  let positives = List.filteri (fun k _ -> k mod 3 = 0) seqs in
  let negatives = List.filteri (fun k _ -> k mod 3 <> 0) seqs in
  let show = List.map (fun (key, n) -> Printf.sprintf "%s/%d" key n) in
  List.iter
    (fun (ns, top) ->
      Alcotest.(check (list string)) "mined grams"
        (show (Algo_oracle.mine_grams ~ns ~top ~positives ~negatives ()))
        (show (Clara.Algo_id.mine_grams ~ns ~top ~positives ~negatives ())))
    [ ([ 2; 3; 4 ], 12); ([ 1; 2 ], 40); ([ 5 ], 8) ];
  (* every gram scores the same here, so the order is the tie-break alone:
     by string key, where "10,2" sorts before "2,3" *)
  let tied = [ [| 2; 3; 10; 2 |]; [| 10; 2; 3; 2 |] ] in
  Alcotest.(check (list string)) "ties break on the string key"
    (show (Algo_oracle.mine_grams ~ns:[ 2 ] ~top:10 ~positives:tied ~negatives:[] ()))
    (show (Clara.Algo_id.mine_grams ~ns:[ 2 ] ~top:10 ~positives:tied ~negatives:[] ()))

(* -- the compiled predictor's memo -- *)

let quick_models = lazy (Clara.Pipeline.train ~quick:true ~with_scaleout:false ())

(* All 87 corpus keys and 200 seeded P4lite programs through one compiled
   bundle: a cold memo, the same order warm, then reversed.  Every report
   must equal the memo-free [Pipeline.report]. *)
let test_memo_reports () =
  let m = Lazy.force quick_models in
  let c = Clara.Pipeline.compile m in
  let rng = Util.Rng.create 0x7e57 in
  let inputs =
    List.concat_map
      (fun wl ->
        List.map (fun nf -> (nf ^ "|" ^ wl, Corpus.find nf, spec_of wl)) (Serve.Server.corpus_names ()))
      workloads
    @ List.filter_map
        (fun k ->
          let wl = List.nth workloads (k mod 3) in
          match P4lite.compile (p4lite_program rng k) with
          | elt -> Some (Printf.sprintf "fresh%d|%s" k wl, elt, spec_of wl)
          | exception _ -> None)
        (List.init 200 Fun.id)
  in
  Alcotest.(check int) "87 corpus keys and 200 programs" 287 (List.length inputs);
  let oracle = List.map (fun (what, elt, spec) -> (what, Clara.Pipeline.report m elt spec)) inputs in
  let pass label order =
    List.iter
      (fun (what, elt, spec) ->
        Alcotest.(check string) (label ^ " " ^ what) (List.assoc what oracle)
          (Clara.Pipeline.report_compiled c elt spec))
      order
  in
  pass "cold memo" inputs;
  pass "warm memo" inputs;
  pass "reversed" (List.rev inputs)

(* More distinct sequences than the budget holds: the memo empties
   instead of growing, and every answer, memoized or not, is the LSTM's. *)
let test_memo_budget () =
  let m = Lazy.force quick_models in
  let p = m.Clara.Pipeline.predictor in
  let c = Clara.Predictor.compile p in
  let vocab = Clara.Vocab.size p.Clara.Predictor.vocab in
  let rng = Util.Rng.create 0xb0d6 in
  let seqs =
    Array.init 3000 (fun k ->
        Array.init (1 + Util.Rng.int rng 60) (fun i -> if i = 0 then k mod vocab else Util.Rng.int rng vocab))
  in
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 seqs in
  Alcotest.(check bool) "the sequences overflow the budget" true (total > 2 * Clara.Predictor.memo_budget);
  let emptied = ref 0 and held = ref 0 in
  let check what tokens =
    Alcotest.(check bool) what true
      (Float.equal (Clara.Predictor.predict_block p tokens) (Clara.Predictor.predict_block_compiled c tokens));
    let now = Clara.Predictor.memo_tokens c in
    if now < !held then incr emptied;
    held := now;
    Alcotest.(check bool) "memo within budget" true (now <= Clara.Predictor.memo_budget)
  in
  Array.iteri
    (fun k tokens ->
      check (Printf.sprintf "sequence %d" k) tokens;
      (* a repeat of a recent sequence is answered from the memo *)
      if k >= 3 then check (Printf.sprintf "repeat of %d" (k - 3)) seqs.(k - 3))
    seqs;
  Alcotest.(check bool) "the memo was emptied at the budget" true (!emptied >= 2)

(* -- minor-heap words per cold analysis -- *)

(* Measured on this fixed set (cmsketch|mixed, wepdecap|small,
   Mazu-NAT|large and two seeded P4lite programs on mixed): 46,752 words
   per analysis once API calls and map inserts evaluated into one buffer
   per statement (the map copies only what it keeps), map probes became
   loops instead of local closures, placement read its costs once and
   [prepare] stopped printing the element; 65,067 before that, once the
   interpreter stopped allocating per packet (one frame, a key buffer
   per map lookup, no verdict or lookup tuple, one scratch packet instead
   of a copied trace), down from 105,055 before that, 130,772 when the
   predictor, accelerator detection and the port each lowered the
   element again, and 8,553,317 with the tree-walking interpreter and
   per-key featurization.  The ceiling is 1.25x the current figure. *)
let minor_words_ceiling = 58_440.0

let test_minor_words () =
  let jobs = Util.Pool.jobs () in
  Util.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Util.Pool.set_jobs jobs) @@ fun () ->
  let m = Clara.Pipeline.train ~quick:true ~with_scaleout:false () in
  let c = Clara.Pipeline.compile m in
  let rng = Util.Rng.create 0x3b0d in
  let inputs =
    [ (Corpus.find "cmsketch", spec_of "mixed"); (Corpus.find "wepdecap", spec_of "small");
      (Corpus.find "Mazu-NAT", spec_of "large") ]
    @ List.init 2 (fun k -> (P4lite.compile (p4lite_program rng k), spec_of "mixed"))
  in
  (* a first pass fills the trace memo and any lazy tables *)
  List.iter (fun (elt, spec) -> ignore (Clara.Pipeline.report_compiled c elt spec)) inputs;
  let words =
    List.fold_left
      (fun acc (elt, spec) ->
        let w0 = Gc.minor_words () in
        ignore (Clara.Pipeline.report_compiled c elt spec);
        acc +. (Gc.minor_words () -. w0))
      0.0 inputs
  in
  let per = words /. float_of_int (List.length inputs) in
  Printf.printf "minor words per analysis: %.0f (ceiling %.0f)\n%!" per minor_words_ceiling;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per analysis <= %.0f" per minor_words_ceiling)
    true (per <= minor_words_ceiling)

let () =
  Alcotest.run "cold"
    [ ( "interp",
        [ Alcotest.test_case "corpus keys x modes" `Quick test_corpus_keys;
          Alcotest.test_case "seeded p4lite programs" `Quick test_p4lite_programs;
          Alcotest.test_case "synthesized programs, run and push" `Quick test_synth_programs;
          Alcotest.test_case "failures" `Quick test_failures;
          Alcotest.test_case "superinstruction shapes and resolved API calls" `Quick test_shapes ] );
      ( "algo_id",
        [ Alcotest.test_case "model bytes" `Quick test_algo_train_bytes;
          Alcotest.test_case "detect and class features" `Quick test_algo_detect_and_features;
          Alcotest.test_case "mined gram order" `Quick test_mined_gram_order ] );
      ( "memo",
        [ Alcotest.test_case "reports equal the memo-free oracle" `Quick test_memo_reports;
          Alcotest.test_case "bounded by its token budget" `Quick test_memo_budget ] );
      ("alloc", [ Alcotest.test_case "minor words per analysis" `Quick test_minor_words ]) ]
