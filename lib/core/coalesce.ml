(** Memory access coalescing via access-vector clustering (§4.4, Figure 13).

    For each stateful scalar v, Clara builds an access vector over the k
    code blocks: p_i = (accesses to v from block i) / (total accesses to
    v).  Variables with similar access vectors are accessed together, so
    K-means clusters become allocation packs fetched with one coalesced
    access sized to the pack. *)

open Nf_lang

(** Scalars eligible for packing. *)
let scalar_names (elt : Ast.element) =
  List.filter_map
    (fun d -> match d with Ast.Scalar { name; _ } -> Some name | Ast.Array _ | Ast.Map _ | Ast.Vector _ -> None)
    elt.Ast.state

(** The access vector of variable [v] over the code blocks that touch any
    scalar, normalized to a distribution (§4.4's p_i).

    Statement ids are coarsened into code blocks: consecutive statements
    with identical execution counts execute together (one straight-line
    region), so variables touched by the same region share a dimension —
    which is what makes `sport`/`dport`-style co-accessed variables have
    identical vectors. *)
let access_vectors (elt : Ast.element) (profile : Interp.profile) =
  let scalars = scalar_names elt in
  let sids = Hashtbl.create 32 in
  let note tbl =
    Hashtbl.iter
      (fun (g, sid) _ -> if List.mem g scalars then Hashtbl.replace sids sid ())
      tbl
  in
  note profile.Interp.global_reads;
  note profile.Interp.global_writes;
  let sorted = List.sort compare (Hashtbl.fold (fun sid () acc -> sid :: acc) sids []) in
  (* group into blocks: adjacent sids with equal execution counts *)
  let groups =
    List.fold_left
      (fun acc sid ->
        match acc with
        | (last_sid, count, members) :: rest
          when sid - last_sid <= 3 && Interp.stmt_count profile sid = count ->
          (sid, count, sid :: members) :: rest
        | _ -> (sid, Interp.stmt_count profile sid, [ sid ]) :: acc)
      [] sorted
    |> List.rev_map (fun (_, _, members) -> members)
  in
  let vector v =
    let counts =
      List.map
        (fun members ->
          float_of_int
            (List.fold_left (fun acc sid -> acc + Interp.global_accesses_at profile v sid) 0 members))
        groups
    in
    let total = List.fold_left ( +. ) 0.0 counts in
    if total <= 0.0 then None
    else Some (Array.of_list (List.map (fun c -> c /. total) counts))
  in
  List.filter_map (fun v -> Option.map (fun vec -> (v, vec)) (vector v)) scalars

(** Mean silhouette score of a clustering (used to pick k). *)
let silhouette xs assign k =
  let n = Array.length xs in
  if n < 3 || k < 2 then 0.0
  else begin
    let mean_dist i members =
      let ds = List.filter_map (fun j -> if j = i then None else Some (Mlkit.La.euclidean xs.(i) xs.(j))) members in
      match ds with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
    in
    let clusters = Array.make k [] in
    Array.iteri (fun i c -> clusters.(c) <- i :: clusters.(c)) assign;
    let scores =
      Array.to_list
        (Array.mapi
           (fun i c ->
             let a = mean_dist i clusters.(c) in
             let b = ref infinity in
             Array.iteri
               (fun c' members -> if c' <> c && members <> [] then b := min !b (mean_dist i members))
               clusters;
             if !b = infinity || max a !b = 0.0 then 0.0 else (!b -. a) /. max a !b)
           assign)
    in
    List.fold_left ( +. ) 0.0 scores /. float_of_int n
  end

(** Suggest variable packs for an element under a profile: K-means over
    access vectors with silhouette-selected k; singleton clusters are not
    packs. *)
let suggest (elt : Ast.element) (profile : Interp.profile) : Nicsim.Perf.packs =
  let vectors = access_vectors elt profile in
  let names = Array.of_list (List.map fst vectors) in
  let xs = Array.of_list (List.map snd vectors) in
  let n = Array.length xs in
  if n < 2 then []
  else begin
    let best = ref ([||], neg_infinity) in
    for k = 2 to min 5 (n - 1) do
      let km = Mlkit.Simple.kmeans_fit ~k xs in
      let assign = Array.map (Mlkit.Simple.kmeans_assign km) xs in
      let s = silhouette xs assign (Array.length km.Mlkit.Simple.centroids) in
      if s > snd !best then best := (assign, s)
    done;
    let assign, _ = !best in
    if Array.length assign = 0 then []
    else begin
      let k = 1 + Array.fold_left max 0 assign in
      let packs = Array.make k [] in
      Array.iteri (fun i c -> packs.(c) <- names.(i) :: packs.(c)) assign;
      Array.to_list packs |> List.filter (fun p -> List.length p >= 2) |> List.map List.rev
    end
  end

(** Suggested coalesced access size in bytes for a pack (§4.4: sizes are
    set to match the variable pack). *)
let pack_access_bytes (elt : Ast.element) pack =
  List.fold_left
    (fun acc v ->
      match Ast.find_state elt v with
      | Some (Ast.Scalar { width; _ }) -> acc + max 1 (width / 8)
      | Some (Ast.Array _ | Ast.Map _ | Ast.Vector _) | None -> acc + 4)
    0 pack

let packed naive packs =
  (packs, Nicsim.Nic.reconfigure naive { Nicsim.Nic.naive_port with Nicsim.Nic.packs })

(** End-to-end: port naively to profile, cluster, and reconfigure the
    naive port with the packs. *)
let apply (elt : Ast.element) (spec : Workload.spec) =
  let naive = Nicsim.Nic.port elt spec in
  packed naive (suggest elt naive.Nicsim.Nic.profile)

(** Expert emulation (§5.8): exhaustively try all partitions of the most
    frequently accessed variables (up to [limit] of them) into packs and
    keep the configuration with the fewest cores-to-saturate. *)
let expert_search ?(limit = 6) (elt : Ast.element) (spec : Workload.spec) =
  let naive = Nicsim.Nic.port elt spec in
  let profile = naive.Nicsim.Nic.profile in
  let by_freq =
    scalar_names elt
    |> List.map (fun v -> (v, Interp.global_accesses profile v))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let hot = List.filteri (fun i _ -> i < limit) by_freq |> List.map fst in
  (* enumerate set partitions of [hot] *)
  let rec partitions = function
    | [] -> [ [] ]
    | x :: rest ->
      List.concat_map
        (fun part ->
          (* put x in each existing block, or alone *)
          let with_existing =
            List.mapi
              (fun i _ -> List.mapi (fun j blk -> if i = j then x :: blk else blk) part)
              part
          in
          ([ x ] :: part) :: with_existing)
        (partitions rest)
  in
  let best = ref None in
  List.iter
    (fun partition ->
      let packs = List.filter (fun p -> List.length p >= 2) partition in
      let _, ported = packed naive packs in
      let cores = Nicsim.Multicore.cores_to_saturate ported.Nicsim.Nic.demand in
      let lat = (Nicsim.Nic.peak ported).Nicsim.Multicore.latency_us in
      match !best with
      | Some (_, _, bc, bl) when (bc, bl) <= (cores, lat) -> ()
      | _ -> best := Some (packs, ported, cores, lat))
    (partitions hot);
  match !best with
  | Some (packs, ported, _, _) -> (packs, ported)
  | None -> packed naive (suggest elt profile)
