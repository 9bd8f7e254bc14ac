(* Seeded request generation.  The program only ever sees the request
   lines built here; every choice comes from the [--seed] argument. *)

let workload_names = [ "mixed"; "large"; "small" ]

(* All 87 corpus keys: 29 NFs x 3 traffic profiles. *)
let corpus_keys () =
  List.concat_map (fun w -> List.map (fun nf -> (nf, w)) (Serve.Server.corpus_names ())) workload_names
  |> Array.of_list

(* The popularity ranking (rank 0 is the most popular under Zipf) and
   the warm hot set are part of a workload's definition, not of its
   draw: with a per-seed ranking, whether the most popular keys shared an
   over-full flow-cache shard moved churn's median by a fifth from seed
   to seed.  [--seed] draws the request sequence and the fresh programs. *)
let popularity () =
  let a = corpus_keys () in
  Util.Rng.shuffle (Util.Rng.create 0x5eed) a;
  a

let zipf_cdf ~s n = Util.Rng.cdf_of_weights (Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)))

type req = {
  id : int;
  line : string;
  key : string;  (** distinct-key identity: ["nf|workload"] or the fresh program's *)
  nf : string;  (** the ["nf"] the reply must carry *)
  wl : string;
  fresh : bool;  (** an inline P4lite program nobody has analyzed *)
}

let analyze_line ~id nf wl =
  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"}|} id nf wl

let analyze_req ~id (nf, wl) =
  { id; line = analyze_line ~id nf wl; key = nf ^ "|" ^ wl; nf; wl; fresh = false }

(* -- fresh P4lite programs (1-3 exact-match tables) -- *)

let key_fields =
  Nf_lang.Ast.[| Ip_src; Ip_dst; Ip_proto; Tcp_sport; Tcp_dport; Udp_dport; Eth_type |]

(* Wire spelling (as the server parses it) and program value of each action. *)
let action_pool =
  Nf_lang.P4lite.
    [| ("drop", Drop_packet); ("noop", No_op); ("dec_ttl", Decrement_ttl); ("forward:1", Forward 1);
       ("forward:2", Forward 2); ("count:hits", Count "hits"); ("set:ip_tos", Set_field Nf_lang.Ast.Ip_tos) |]

let sizes = [| 16; 32; 64; 128; 256 |]

let pick rng a = a.(Util.Rng.int rng (Array.length a))

(* A program as its wire JSON and as the value [Nf_lang.P4lite.compile]
   takes (the latter feeds the compile-cost replay). *)
let program ?tables rng ~name =
  let table i =
    let keys = List.sort_uniq compare (List.init (1 + Util.Rng.int rng 2) (fun _ -> pick rng key_fields)) in
    let actions = List.sort_uniq compare (List.init (1 + Util.Rng.int rng 3) (fun _ -> pick rng action_pool)) in
    let default = pick rng action_pool in
    let size = pick rng sizes in
    let json =
      let strs l = String.concat "," (List.map (Printf.sprintf "\"%s\"") l) in
      Printf.sprintf {|{"name":"t%d","keys":[%s],"actions":[%s],"default":"%s","size":%d}|} i
        (strs (List.map Nf_lang.Ast.field_name keys))
        (strs (List.map fst actions))
        (fst default) size
    in
    ( json,
      { Nf_lang.P4lite.t_name = Printf.sprintf "t%d" i; keys; actions = List.map snd actions;
        default_action = snd default; size } )
  in
  let n = match tables with Some n -> n | None -> 1 + Util.Rng.int rng 3 in
  let tables = List.init n table in
  ( Printf.sprintf {|{"name":"%s","tables":[%s]}|} name (String.concat "," (List.map fst tables)),
    { Nf_lang.P4lite.p_name = name; pipeline = List.map snd tables } )

let fresh_req rng ~id ~name ~wl ~tables =
  let json, _ = program ~tables rng ~name in
  { id;
    line = Printf.sprintf {|{"id":%d,"cmd":"analyze","p4lite":%s,"workload":"%s"}|} id json wl;
    key = name ^ "|" ^ wl;
    nf = name;
    wl;
    fresh = true }

(* An endless seeded request stream: Zipf over [keys] (in rank order),
   with a [fresh_share] of fresh programs named [prefix]-N.  Exactly one
   line in each block of 1/[fresh_share] is fresh, at a seeded position,
   and fresh programs take the nine (traffic profile, table count) pairs
   in turn: a fresh analysis on [small] costs ten times one on [mixed],
   so a drawn share, profile or size would move throughput from seed to
   seed. *)
type stream = {
  rng : Util.Rng.t;
  keys : (string * string) array;
  cdf : Util.Rng.cdf;
  fresh_share : float;
  prefix : string;
  mutable next_id : int;
  mutable fresh_n : int;
  mutable fresh_at : int;  (** position of this block's fresh line *)
}

let stream ~seed ~keys ~zipf_s ~fresh_share ~prefix =
  { rng = Util.Rng.create seed; keys; cdf = zipf_cdf ~s:zipf_s (Array.length keys); fresh_share;
    prefix; next_id = 0; fresh_n = 0; fresh_at = -1 }

let next st =
  st.next_id <- st.next_id + 1;
  let block = if st.fresh_share > 0.0 then int_of_float (Float.round (1.0 /. st.fresh_share)) else 0 in
  let pos = if block > 0 then st.next_id mod block else -1 in
  if pos = 0 then st.fresh_at <- Util.Rng.int st.rng block;
  if block > 0 && pos = st.fresh_at then begin
    st.fresh_n <- st.fresh_n + 1;
    fresh_req st.rng ~id:st.next_id ~name:(Printf.sprintf "%s-%d" st.prefix st.fresh_n)
      ~wl:(List.nth workload_names (st.fresh_n mod 3))
      ~tables:(1 + (st.fresh_n / 3 mod 3))
  end
  else analyze_req ~id:st.next_id st.keys.(Util.Rng.weighted_index_cdf st.rng st.cdf)

(* Requests with ids continuing [st]'s, one per key (warm-up). *)
let one_each st keys =
  List.map
    (fun k ->
      st.next_id <- st.next_id + 1;
      analyze_req ~id:st.next_id k)
    (Array.to_list keys)
