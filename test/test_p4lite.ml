(** Tests for the P4-lite match-action front-end: compilation to the NF
    AST, runtime table programming, action semantics, and Clara analyses
    applying unchanged to compiled pipelines. *)

open Nf_lang

let packet ?(src = 0x0a000001) ?(dst = 0xc0a80001) () =
  let p = Packet.create () in
  p.Packet.ip_src <- src;
  p.Packet.ip_dst <- dst;
  p

let router () = P4lite.compile P4lite.simple_router

let test_compiles_to_element () =
  let elt = router () in
  Alcotest.(check string) "name" "p4_router" elt.Ast.name;
  Alcotest.(check bool) "stateful" true (Ast.is_stateful elt);
  (* one map + hit/miss counters per table, plus the counter array *)
  Alcotest.(check bool) "tables became maps" true
    (List.exists (fun d -> Ast.state_name d = "ipv4_fwd") elt.Ast.state);
  Alcotest.(check bool) "counter array present" true
    (List.exists (fun d -> Ast.state_name d = "nh_counters") elt.Ast.state);
  (* the compiled element lowers and verifies like any other NF *)
  let ir = Nf_frontend.Lower.lower_element elt in
  Alcotest.(check (list string)) "well-formed IR" []
    (List.map (fun v -> v.Nf_ir.Verify.message) (Nf_ir.Verify.check ir))

let test_default_actions () =
  let interp = Interp.create ~mode:State.Nic (router ()) in
  (* empty tables: ACL no-op, fwd decrements TTL, egress defaults to port 0 *)
  let p = packet () in
  let before_ttl = p.Packet.ip_ttl in
  (match Interp.push interp p with
  | Interp.Emitted 0 -> ()
  | Interp.Emitted n -> Alcotest.failf "unexpected port %d" n
  | Interp.Dropped -> Alcotest.fail "default pipeline forwards");
  Alcotest.(check int) "ttl decremented by the default action" (before_ttl - 1) p.Packet.ip_ttl;
  Alcotest.(check int) "miss counted" 1
    !(State.scalar_ref interp.Interp.state "ipv4_fwd_misses")

let test_acl_entry_drops () =
  let interp = Interp.create ~mode:State.Nic (router ()) in
  P4lite.table_add P4lite.simple_router interp ~table:"acl" ~key:[ 0x0a0000bad land 0xffffffff ]
    P4lite.Drop_packet ~param:0;
  (match Interp.push interp (packet ~src:(0x0a0000bad land 0xffffffff) ()) with
  | Interp.Dropped -> ()
  | Interp.Emitted _ -> Alcotest.fail "ACL entry must drop");
  Alcotest.(check int) "hit counted" 1 !(State.scalar_ref interp.Interp.state "acl_hits");
  (* other sources still pass *)
  match Interp.push interp (packet ()) with
  | Interp.Emitted 0 -> ()
  | Interp.Emitted _ | Interp.Dropped -> Alcotest.fail "unlisted source passes"

let test_egress_steering () =
  let interp = Interp.create ~mode:State.Nic (router ()) in
  P4lite.table_add P4lite.simple_router interp ~table:"egress" ~key:[ 0xc0a80001 ] (P4lite.Forward 2) ~param:0;
  (match Interp.push interp (packet ~dst:0xc0a80001 ()) with
  | Interp.Emitted 2 -> ()
  | Interp.Emitted n -> Alcotest.failf "wrong egress %d" n
  | Interp.Dropped -> Alcotest.fail "steered packet must forward");
  match Interp.push interp (packet ~dst:0xc0a80099 ()) with
  | Interp.Emitted 0 -> ()
  | Interp.Emitted _ | Interp.Dropped -> Alcotest.fail "default egress is port 0"

let test_count_action () =
  let interp = Interp.create ~mode:State.Nic (router ()) in
  P4lite.table_add P4lite.simple_router interp ~table:"ipv4_fwd" ~key:[ 0xc0a80001 ] (P4lite.Count "nh_counters")
    ~param:7;
  for _ = 1 to 3 do
    ignore (Interp.push interp (packet ~dst:0xc0a80001 ()))
  done;
  let counters = State.array_of interp.Interp.state "nh_counters" in
  Alcotest.(check int) "per-next-hop counter" 3 counters.(7)

let test_set_field_action () =
  let interp = Interp.create ~mode:State.Nic (router ()) in
  P4lite.table_add P4lite.simple_router interp ~table:"ipv4_fwd" ~key:[ 0xc0a80001 ] (P4lite.Set_field Ast.Ip_tos)
    ~param:0x2e;
  let p = packet ~dst:0xc0a80001 () in
  ignore (Interp.push interp p);
  Alcotest.(check int) "DSCP rewritten from the entry parameter" 0x2e p.Packet.ip_tos

let test_clara_analyzes_p4 () =
  (* the compiled pipeline flows through Clara like any Click element *)
  let elt = router () in
  let spec = { Workload.default with Workload.n_packets = 300; Workload.proto = Workload.Mixed } in
  let ported = Nicsim.Nic.port elt spec in
  Alcotest.(check bool) "demand assembled" true (ported.Nicsim.Nic.demand.Nicsim.Perf.compute > 0.0);
  let placement = Clara.Placement.solve elt ported in
  Alcotest.(check int) "all structures placed" (List.length elt.Ast.state)
    (List.length placement);
  Alcotest.(check bool) "hot table counters leave EMEM" true
    (List.assoc "ipv4_fwd_misses" placement <> Nicsim.Mem.EMEM)

(* -- the pretty-printer against its list-printer oracle --

   An inline program's flow key is the CRC of its pretty-print, so the
   one-buffer printer must render every element byte for byte as the
   list printer did: the corpus, fitted synthetic NFs, and seeded P4lite
   programs drawn like the verification recipe's (1-3 tables, 1-2 keys,
   1-3 actions, a default and a size each). *)

let pick rng a = a.(Util.Rng.int rng (Array.length a))
let fields = Ast.[| Ip_src; Ip_dst; Ip_proto; Tcp_sport; Tcp_dport; Udp_dport; Eth_type |]

let actions =
  P4lite.[| Drop_packet; No_op; Decrement_ttl; Forward 1; Forward 2; Count "hits"; Set_field Ast.Ip_tos |]

let seeded_program rng k =
  let table i =
    { P4lite.t_name = Printf.sprintf "t%d" i;
      keys = List.sort_uniq compare (List.init (1 + Util.Rng.int rng 2) (fun _ -> pick rng fields));
      actions = List.sort_uniq compare (List.init (1 + Util.Rng.int rng 3) (fun _ -> pick rng actions));
      default_action = pick rng actions;
      size = pick rng [| 16; 32; 64; 128; 256 |] }
  in
  { P4lite.p_name = Printf.sprintf "fresh%d" k; pipeline = List.init (1 + Util.Rng.int rng 3) table }

let rec statements (s : Ast.stmt) =
  s
  :: (match s.Ast.node with
     | Ast.If (_, t, f) -> List.concat_map statements (t @ f)
     | Ast.While (_, b) | Ast.For (_, _, _, b) -> List.concat_map statements b
     | _ -> [])

let same_print what (elt : Ast.element) =
  Alcotest.(check string) (what ^ ": to_string") (Pp_oracle.to_string elt) (Pp.to_string elt);
  Alcotest.(check int) (what ^ ": loc") (Pp_oracle.loc elt) (Pp.loc elt);
  List.iter
    (fun s ->
      Alcotest.(check string) (what ^ ": stmt_text")
        (String.concat " " (List.map String.trim (Pp_oracle.stmt_lines 0 s)))
        (Pp.stmt_text s))
    (List.concat_map statements (elt.Ast.handler @ List.concat_map snd elt.Ast.subs))

let test_pp_matches_oracle () =
  let corpus = Corpus.all () in
  Alcotest.(check int) "29 corpus elements" 29 (List.length corpus);
  List.iter (fun elt -> same_print elt.Ast.name elt) corpus;
  List.iter (fun elt -> same_print elt.Ast.name elt) (Synth.Generator.batch ~seed:3 50);
  let rng = Util.Rng.create 0x7e57 in
  for k = 0 to 199 do
    same_print (Printf.sprintf "fresh%d" k) (P4lite.compile (seeded_program rng k))
  done

let () =
  Alcotest.run "p4lite"
    [ ( "compile",
        [ Alcotest.test_case "compiles to element" `Quick test_compiles_to_element;
          Alcotest.test_case "default actions" `Quick test_default_actions ] );
      ( "actions",
        [ Alcotest.test_case "acl drop" `Quick test_acl_entry_drops;
          Alcotest.test_case "egress steering" `Quick test_egress_steering;
          Alcotest.test_case "count" `Quick test_count_action;
          Alcotest.test_case "set field" `Quick test_set_field_action ] );
      ("clara", [ Alcotest.test_case "end-to-end analysis" `Quick test_clara_analyzes_p4 ]);
      ("pp", [ Alcotest.test_case "one buffer walker = list printer" `Quick test_pp_matches_oracle ])
    ]
