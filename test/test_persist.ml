(** Tests for the persist artifact store: byte-exact codec round-trips,
    typed rejection of corrupt/mismatched frames, and
    predictions-identical-after-reload for a really trained predictor. *)

(* A decoded value must re-encode to the same bytes (codecs are
   canonical), so [encode . decode . encode = encode] is the round-trip
   oracle — it covers every field without a per-type equality. *)
let check_roundtrip name encode decode v =
  let bytes = encode v in
  match decode bytes with
  | Result.Error e -> Alcotest.failf "%s: decode failed: %s" name (Persist.Wire.error_to_string e)
  | Result.Ok v' -> Alcotest.(check string) (name ^ " re-encodes identically") bytes (encode v')

(* -- small synthetic components -- *)

let small_vocab () =
  let v = Clara.Vocab.create () in
  List.iter
    (fun w -> ignore (Clara.Vocab.index v w))
    [ "load"; "store"; "add"; "hash_lookup"; "send" ];
  v

let small_tree =
  { Mlkit.Tree.root =
      Mlkit.Tree.Split
        { feature = 1;
          threshold = 0.75;
          left = Mlkit.Tree.Leaf 1.5;
          right =
            Mlkit.Tree.Split
              { feature = 0; threshold = -2.0; left = Mlkit.Tree.Leaf 0.0; right = Mlkit.Tree.Leaf 9.25 } } }

let small_gbdt =
  { Mlkit.Tree.init = 3.125; shrinkage = 0.1; stages = [ small_tree; { Mlkit.Tree.root = Mlkit.Tree.Leaf 0.5 } ] }

let test_codec_roundtrips () =
  check_roundtrip "vocab" Persist.Codec.encode_vocab Persist.Codec.decode_vocab (small_vocab ());
  check_roundtrip "lstm" Persist.Codec.encode_lstm Persist.Codec.decode_lstm
    (Mlkit.Lstm.create ~hidden:6 ~vocab:16 7);
  check_roundtrip "tree" Persist.Codec.encode_tree Persist.Codec.decode_tree small_tree;
  check_roundtrip "forest" Persist.Codec.encode_forest Persist.Codec.decode_forest
    { Mlkit.Tree.trees = [ small_tree; { Mlkit.Tree.root = Mlkit.Tree.Leaf 2.0 } ] };
  check_roundtrip "gbdt" Persist.Codec.encode_gbdt Persist.Codec.decode_gbdt small_gbdt;
  check_roundtrip "svm" Persist.Codec.encode_svm Persist.Codec.decode_svm
    { Mlkit.Simple.w = [| 0.5; -1.25; 3.0 |]; b = 0.125; mu = [| 1.0; 2.0; 3.0 |]; sd = [| 1.0; 0.5; 2.0 |] };
  check_roundtrip "ranker" Persist.Codec.encode_ranker Persist.Codec.decode_ranker
    { Mlkit.Rank.model = small_gbdt };
  check_roundtrip "kmeans" Persist.Codec.encode_kmeans Persist.Codec.decode_kmeans
    { Mlkit.Simple.centroids = [| [| 0.0; 1.0 |]; [| -4.5; 2.25 |] |] }

let test_special_floats_roundtrip () =
  (* Int64-bits encoding must survive values %g-style printing would not *)
  let weird = [| Float.min_float; -0.0; 1e-310; Float.max_float; 0.1 +. 0.2 |] in
  check_roundtrip "weird floats" Persist.Codec.encode_kmeans Persist.Codec.decode_kmeans
    { Mlkit.Simple.centroids = [| weird |] }

(* -- negative tests: corrupt frames must produce typed errors, never
   crash -- *)

let expect_error name bytes check =
  match Persist.Codec.decode_vocab bytes with
  | Result.Ok _ -> Alcotest.failf "%s: corrupt frame decoded successfully" name
  | Result.Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s" name (Persist.Wire.error_to_string e))
      true (check e)

let flip bytes i =
  let b = Bytes.of_string bytes in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  Bytes.to_string b

let test_corrupt_frames_rejected () =
  let good = Persist.Codec.encode_vocab (small_vocab ()) in
  expect_error "truncated payload"
    (String.sub good 0 (String.length good - 3))
    (function Persist.Wire.Truncated _ -> true | _ -> false);
  expect_error "empty file" ""
    (function Persist.Wire.Truncated _ -> true | _ -> false);
  expect_error "bad magic" (flip good 0)
    (function Persist.Wire.Bad_magic _ -> true | _ -> false);
  expect_error "wrong format version" (flip good 8)
    (function Persist.Wire.Bad_version _ -> true | _ -> false);
  expect_error "flipped payload byte" (flip good (String.length good - 1))
    (function Persist.Wire.Crc_mismatch _ -> true | _ -> false);
  expect_error "trailing garbage" (good ^ "x")
    (function Persist.Wire.Malformed _ -> true | _ -> false);
  (* decoding a frame as the wrong component *)
  (match Persist.Codec.decode_lstm good with
  | Result.Ok _ -> Alcotest.fail "vocab frame decoded as an LSTM"
  | Result.Error (Persist.Wire.Wrong_component { expected; got }) ->
    Alcotest.(check string) "expected component" Persist.Codec.lstm_tag expected;
    Alcotest.(check string) "got component" Persist.Codec.vocab_tag got
  | Result.Error e ->
    Alcotest.failf "wrong error for component mismatch: %s" (Persist.Wire.error_to_string e))

(* Bit-at-a-time reflected CRC-32 on [Int32], written independently of
   the table-driven [Persist.Wire.crc32]. *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done)
    s;
  Int32.lognot !c

let test_crc32_known_answer () =
  Alcotest.(check int32) "check value of \"123456789\"" 0xCBF43926l
    (Persist.Wire.crc32 "123456789");
  Alcotest.(check int32) "empty string" 0l (Persist.Wire.crc32 "");
  let rng = Util.Rng.create 0xc3c3 in
  let whole = String.init 1000 (fun _ -> Char.chr (Util.Rng.int rng 256)) in
  Alcotest.(check int32) "matches the bitwise reference" (crc32_bitwise whole)
    (Persist.Wire.crc32 whole);
  List.iter
    (fun cut ->
      let crc = Persist.Wire.crc32 (String.sub whole 0 cut) in
      Alcotest.(check int32) (Printf.sprintf "chained ?crc split at %d" cut)
        (Persist.Wire.crc32 whole)
        (Persist.Wire.crc32 ~crc (String.sub whole cut (String.length whole - cut))))
    [ 0; 1; 4; 333; 999; 1000 ]

let test_manifest_roundtrip () =
  let m =
    { Persist.Bundle.seed = 501; epochs = 4; corpus_hash = "deadbeef"; built_at = "2026-01-01T00:00:00Z" }
  in
  match Persist.Bundle.decode_manifest (Persist.Bundle.encode_manifest m) with
  | Result.Ok m' -> Alcotest.(check bool) "manifest round-trips" true (m = m')
  | Result.Error e -> Alcotest.failf "manifest decode failed: %s" (Persist.Wire.error_to_string e)

(* -- trained models: predictions must be bit-identical after a disk
   round-trip -- *)

let tiny_models () =
  let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
  let predictor = Clara.Predictor.train ~epochs:1 ds in
  let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
  { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }

let test_predictions_survive_reload () =
  let models = tiny_models () in
  let dir = Filename.temp_file "clara_test_bundle" ".d" in
  Sys.remove dir;
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir manifest models;
  let loaded =
    match Persist.Bundle.load ~dir with
    | Result.Ok b -> b
    | Result.Error e -> Alcotest.failf "bundle load failed: %s" (Persist.Wire.error_to_string e)
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Alcotest.(check bool) "manifest survives" true (loaded.Persist.Bundle.manifest = manifest);
  let elt = Nf_lang.Corpus.find "tcpack" in
  let predict m = Clara.Predictor.predict_element m.Clara.Pipeline.predictor elt in
  Alcotest.(check bool) "per-block predictions bit-identical" true
    (predict models = predict loaded.Persist.Bundle.models);
  let classify m = Clara.Algo_id.classify m.Clara.Pipeline.algo (Nf_lang.Corpus.find "cmsketch") in
  Alcotest.(check bool) "algorithm labels identical" true
    (classify models = classify loaded.Persist.Bundle.models);
  (* and the persisted form itself is canonical *)
  Alcotest.(check bool) "bundle re-encodes identically" true
    (Persist.Bundle.encode manifest models
    = Persist.Bundle.encode loaded.Persist.Bundle.manifest loaded.Persist.Bundle.models)

(* A hot reload rebuilds every serving lane, so predictions memoized
   under the old models never answer for the new ones: a server warmed
   on one bundle and reloaded to a bundle trained with another seed
   answers byte for byte like a fresh server on that bundle. *)
let test_reload_drops_memo () =
  let old_models = tiny_models () in
  let new_models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 ~seed:777 () in
    { old_models with Clara.Pipeline.predictor = Clara.Predictor.train ~epochs:1 ds }
  in
  let dir = Filename.temp_file "clara_test_reload" ".d" in
  Sys.remove dir;
  let manifest =
    { Persist.Bundle.seed = 777; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir manifest new_models;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let lines =
    List.mapi
      (fun i (nf, wl) ->
        Printf.sprintf {|{"id":%d,"trace_id":"r%d","cmd":"analyze","nf":"%s","workload":"%s"}|} i i nf wl)
      [ ("tcpack", "mixed"); ("udpipencap", "small"); ("cmsketch", "large"); ("anonipaddr", "mixed") ]
    @ [ {|{"id":9,"trace_id":"r9","cmd":"analyze","p4lite":{"name":"acl","tables":[{"name":"t","keys":["ip_src"],"actions":["drop","forward:1"],"default":"forward:0","size":16}]}}|} ]
  in
  let warm = Serve.Server.create old_models in
  let before = Serve.Server.process_batch warm lines in
  ignore (Serve.Server.process_batch warm lines);
  let reload =
    Serve.Server.handle_request warm
      (Printf.sprintf {|{"id":0,"trace_id":"t-reload","cmd":"reload","bundle":"%s"}|} dir)
  in
  Alcotest.(check bool) ("reload accepted: " ^ reload) true
    (Serve.Jsonl.member "reloaded" (Result.get_ok (Serve.Jsonl.of_string reload))
     = Some (Serve.Jsonl.Bool true));
  let fresh =
    match Persist.Bundle.load ~dir with
    | Result.Ok b -> Serve.Server.create b.Persist.Bundle.models
    | Result.Error e -> Alcotest.failf "bundle load failed: %s" (Persist.Wire.error_to_string e)
  in
  let expected = Serve.Server.process_batch fresh lines in
  Alcotest.(check bool) "the new bundle changes some reply" true (before <> expected);
  Alcotest.(check (list string)) "reloaded server answers like a fresh one" expected
    (Serve.Server.process_batch warm lines);
  Alcotest.(check (list string)) "and again from its cache" (Serve.Server.process_batch fresh lines)
    (Serve.Server.process_batch warm lines)

(* -- crash matrix: every truncation point and every flipped byte of a
   frame must decode to a typed error (or, for the length prefix, still a
   valid value is impossible — the CRC covers the payload), never raise -- *)

let test_crash_matrix () =
  let good = Persist.Codec.encode_vocab (small_vocab ()) in
  let len = String.length good in
  let decode name bytes =
    match Persist.Codec.decode_vocab bytes with
    | Result.Ok _ -> ()
    | Result.Error _ -> ()
    | exception e ->
      Alcotest.failf "%s: decode raised %s instead of a typed error" name (Printexc.to_string e)
  in
  (* every prefix is a possible torn write *)
  for i = 0 to len - 1 do
    let bytes = String.sub good 0 i in
    decode (Printf.sprintf "truncated to %d bytes" i) bytes;
    (match Persist.Codec.decode_vocab bytes with
    | Result.Ok _ -> Alcotest.failf "truncation to %d bytes decoded successfully" i
    | Result.Error _ -> ())
  done;
  (* every single-byte corruption *)
  for i = 0 to len - 1 do
    decode (Printf.sprintf "byte %d flipped" i) (flip good i)
  done;
  (* a flipped byte anywhere must be detected: magic, version, tag and
     lengths are validated, and the CRC covers the whole payload *)
  for i = 0 to len - 1 do
    match Persist.Codec.decode_vocab (flip good i) with
    | Result.Ok _ -> Alcotest.failf "flip at byte %d went undetected" i
    | Result.Error _ -> ()
  done

(* -- atomic writes: a writer killed mid-write (simulated by the armed
   [persist.write] fault) leaves the previous artifact intact -- *)

let with_fault ~point ~prob f =
  Obs.Fault.set ~point ~prob ~seed:1;
  Fun.protect ~finally:(fun () -> Obs.Fault.remove point) f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_write_survives_kill () =
  let path = Filename.temp_file "clara_atomic" ".clara" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
  @@ fun () ->
  Persist.Wire.save ~component:"v1" path "first version";
  let v1 = read_file path in
  (match
     with_fault ~point:"persist.write" ~prob:1.0 (fun () ->
         Persist.Wire.save ~component:"v1" path "second version, longer than the first")
   with
  | () -> Alcotest.fail "armed persist.write must kill the writer"
  | exception Obs.Fault.Injected _ -> ());
  Alcotest.(check string) "old artifact untouched by the killed writer" v1 (read_file path);
  Alcotest.(check bool) "old artifact still loads" true
    (Persist.Wire.load ~component:"v1" path = Result.Ok "first version");
  (* the torn temp file is evidence of the crash, not part of the store *)
  Alcotest.(check bool) "torn temp file left behind" true (Sys.file_exists (path ^ ".tmp"));
  (* a healthy writer then replaces the artifact atomically *)
  Persist.Wire.save ~component:"v1" path "second version, longer than the first";
  Alcotest.(check bool) "healthy rewrite lands" true
    (Persist.Wire.load ~component:"v1" path
    = Result.Ok "second version, longer than the first")

let test_read_fault_is_typed () =
  let path = Filename.temp_file "clara_readfault" ".clara" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Persist.Wire.save ~component:"v1" path "payload";
  with_fault ~point:"persist.read" ~prob:1.0 (fun () ->
      match Persist.Wire.load ~component:"v1" path with
      | Result.Error (Persist.Wire.Io_error _) -> ()
      | Result.Ok _ -> Alcotest.fail "armed persist.read must fail the load"
      | Result.Error e ->
        Alcotest.failf "wrong error class: %s" (Persist.Wire.error_to_string e));
  Alcotest.(check bool) "reads recover once the fault clears" true
    (Persist.Wire.load ~component:"v1" path = Result.Ok "payload")

(* -- bundle-level crash recovery -- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let fresh_bundle_dir () =
  let dir = Filename.temp_file "clara_bundle_crash" ".d" in
  Sys.remove dir;
  dir

let save_tiny dir =
  let models = tiny_models () in
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir manifest models;
  (manifest, models)

let test_bundle_salvage_drops_optional () =
  let dir = fresh_bundle_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let manifest, _ = save_tiny dir in
  (* a torn optional component: scaleout.clara exists but is garbage *)
  Out_channel.with_open_bin (Filename.concat dir "scaleout.clara") (fun oc ->
      Out_channel.output_string oc "CLARAOBJ garbage, not a frame");
  (match Persist.Bundle.load ~dir with
  | Result.Ok _ -> Alcotest.fail "strict load must reject the corrupt component"
  | Result.Error _ -> ());
  match Persist.Bundle.load_salvage ~dir with
  | Result.Error e -> Alcotest.failf "salvage failed: %s" (Persist.Wire.error_to_string e)
  | Result.Ok (b, dropped) ->
    Alcotest.(check bool) "manifest survives" true (b.Persist.Bundle.manifest = manifest);
    Alcotest.(check bool) "corrupt scaleout dropped" true
      (b.Persist.Bundle.models.Clara.Pipeline.scaleout = None);
    (match dropped with
    | [ ("scaleout.clara", _) ] -> ()
    | _ -> Alcotest.failf "expected one dropped component, got %d" (List.length dropped))

let test_bundle_salvage_still_fails_on_required () =
  let dir = fresh_bundle_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore (save_tiny dir);
  (* corrupt a REQUIRED component: salvage must refuse (caller cold-starts) *)
  let pred = Filename.concat dir "predictor.clara" in
  let bytes = read_file pred in
  Out_channel.with_open_bin pred (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 (String.length bytes / 2)));
  match Persist.Bundle.load_salvage ~dir with
  | Result.Ok _ -> Alcotest.fail "salvage must not invent a predictor"
  | Result.Error (Persist.Wire.Truncated _ | Persist.Wire.Crc_mismatch _) -> ()
  | Result.Error e -> Alcotest.failf "unexpected error class: %s" (Persist.Wire.error_to_string e)

let test_bundle_save_killed_keeps_old () =
  let dir = fresh_bundle_dir () in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let manifest, models = save_tiny dir in
  (* a save killed at its first component write must leave the whole old
     bundle readable (components are atomic; the manifest goes last) *)
  (match
     with_fault ~point:"persist.write" ~prob:1.0 (fun () ->
         Persist.Bundle.save ~dir { manifest with Persist.Bundle.built_at = "2099-01-01" } models)
   with
  | () -> Alcotest.fail "armed persist.write must kill the save"
  | exception Obs.Fault.Injected _ -> ());
  match Persist.Bundle.load ~dir with
  | Result.Error e ->
    Alcotest.failf "old bundle unreadable after killed save: %s"
      (Persist.Wire.error_to_string e)
  | Result.Ok b ->
    Alcotest.(check bool) "old manifest intact (save never reached it)" true
      (b.Persist.Bundle.manifest = manifest)

(* -- hot-reload publish crash matrix: a publisher killed mid-write of
   the new bundle's manifest — at EVERY truncation prefix — must leave a
   serving worker on the old version with its cached replies intact.
   The manifest is written last ([Persist.Bundle.save]) and peeked first
   ([peek_version]), so a torn manifest is exactly what a crashed
   publish looks like to the reload path. -- *)

let test_hot_reload_publish_crash_matrix () =
  let dir_a = fresh_bundle_dir () and dir_b = fresh_bundle_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_a; rm_rf dir_b) @@ fun () ->
  let manifest_a, models = save_tiny dir_a in
  let version_a = Persist.Bundle.version manifest_a in
  let manifest_b = { manifest_a with Persist.Bundle.built_at = "1999-01-01T00:00:00Z" } in
  Persist.Bundle.save ~dir:dir_b manifest_b models;
  let version_b = Persist.Bundle.version manifest_b in
  Alcotest.(check bool) "bundles version differently" true (version_a <> version_b);
  let srv = Serve.Server.create ~cache_capacity:16 ~version:version_a models in
  (* fixed id + trace_id: the server echoes both, so a warm cached reply
     is byte-for-byte reproducible *)
  let analyze =
    {|{"id":7,"trace_id":"t-fixed","cmd":"analyze","nf":"tcpack","workload":"mixed"}|}
  in
  ignore (Serve.Server.handle_request srv analyze);
  let baseline = Serve.Server.handle_request srv analyze in
  let reload_line =
    Printf.sprintf {|{"id":9,"trace_id":"t-reload","cmd":"reload","bundle":"%s","expect":"%s"}|}
      dir_b version_b
  in
  let reload_refused tag =
    (match Serve.Jsonl.of_string (Serve.Server.handle_request srv reload_line) with
    | Error e -> Alcotest.failf "%s: reload reply unparseable: %s" tag e
    | Ok r ->
      if Serve.Jsonl.member "ok" r <> Some (Serve.Jsonl.Bool false) then
        Alcotest.failf "%s: torn bundle must refuse to load" tag);
    Alcotest.(check string) (tag ^ ": old version keeps serving") version_a
      (Serve.Server.version srv);
    Alcotest.(check string) (tag ^ ": cached reply untouched") baseline
      (Serve.Server.handle_request srv analyze)
  in
  let truncate_to path bytes =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)
  in
  (* the manifest, killed at every byte *)
  let manifest_path = Filename.concat dir_b "MANIFEST.clara" in
  let whole_manifest = read_file manifest_path in
  for i = 0 to String.length whole_manifest - 1 do
    truncate_to manifest_path (String.sub whole_manifest 0 i);
    reload_refused (Printf.sprintf "manifest torn at %d" i)
  done;
  truncate_to manifest_path whole_manifest;
  (* a required component torn (sampled prefixes — the codec matrix
     already proves every prefix is rejected byte-exactly) *)
  let pred_path = Filename.concat dir_b "predictor.clara" in
  let whole_pred = read_file pred_path in
  let plen = String.length whole_pred in
  List.iter
    (fun i ->
      truncate_to pred_path (String.sub whole_pred 0 i);
      reload_refused (Printf.sprintf "predictor torn at %d" i))
    [ 0; plen / 4; plen / 2; 3 * plen / 4; plen - 1 ];
  truncate_to pred_path whole_pred;
  (* bundle healthy again: the same negotiation now lands the new version *)
  (match Serve.Jsonl.of_string (Serve.Server.handle_request srv reload_line) with
  | Error e -> Alcotest.failf "restored reload reply unparseable: %s" e
  | Ok r ->
    if Serve.Jsonl.member "ok" r <> Some (Serve.Jsonl.Bool true) then
      Alcotest.fail "restored bundle must reload cleanly");
  Alcotest.(check string) "new version serving" version_b (Serve.Server.version srv);
  (* the flow cache restarted with the new version: same request, same
     report, fresh entry *)
  ignore (Serve.Server.handle_request srv analyze);
  Alcotest.(check string) "rewarmed reply identical across versions" baseline
    (Serve.Server.handle_request srv analyze)

let () =
  Alcotest.run "persist"
    [ ( "codec",
        [ Alcotest.test_case "component round-trips" `Quick test_codec_roundtrips;
          Alcotest.test_case "special floats" `Quick test_special_floats_roundtrip;
          Alcotest.test_case "corrupt frames rejected" `Quick test_corrupt_frames_rejected;
          Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "crc32 known answer and chaining" `Quick test_crc32_known_answer ] );
      ( "crash",
        [ Alcotest.test_case "truncation and bit-flip matrix" `Quick test_crash_matrix;
          Alcotest.test_case "killed writer leaves old artifact" `Quick
            test_atomic_write_survives_kill;
          Alcotest.test_case "read faults are typed" `Quick test_read_fault_is_typed;
          Alcotest.test_case "salvage drops corrupt optional components" `Slow
            test_bundle_salvage_drops_optional;
          Alcotest.test_case "salvage refuses a broken required component" `Slow
            test_bundle_salvage_still_fails_on_required;
          Alcotest.test_case "killed bundle save keeps the old bundle" `Slow
            test_bundle_save_killed_keeps_old;
          Alcotest.test_case "hot-reload publish crash matrix" `Slow
            test_hot_reload_publish_crash_matrix ] );
      ( "bundle",
        [ Alcotest.test_case "predictions survive reload" `Slow test_predictions_survive_reload;
          Alcotest.test_case "reload drops memoized predictions" `Quick test_reload_drops_memo ] ) ]
