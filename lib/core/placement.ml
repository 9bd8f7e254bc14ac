(** NF state placement via ILP (§4.3, Figure 12).

    Clara profiles data-structure access frequencies by running the NF on
    the host (with reverse-ported data-structure semantics so the control
    flow matches the NIC) and solves

      min sum_ij L_j * p_ij * f_i
      s.t. every structure placed once; level capacities respected.

    The formulation deliberately ignores per-level *bandwidth* — the
    source of the small gap against exhaustive search the paper observes
    in §5.8 (spreading hot state across two levels can raise aggregate
    bandwidth). *)

open Nf_lang

(** Placement candidates: shared NF state cannot live in per-core LMEM. *)
let candidate_levels = [ Nicsim.Mem.CLS; Nicsim.Mem.CTM; Nicsim.Mem.IMEM; Nicsim.Mem.EMEM ]

(** Per-structure access frequencies (accesses/packet) under a workload,
    measured from the ported profile. *)
let access_frequencies (ported : Nicsim.Nic.ported) = ported.Nicsim.Nic.demand.Nicsim.Perf.per_structure

(** Solve the ILP for an element's structures.  Returns a
    {!Nicsim.Mem.placement}; structures the profile never touched still get
    placed (frequency 0 → cheapest feasible level last). *)
let solve (elt : Ast.element) (ported : Nicsim.Nic.ported) : Nicsim.Mem.placement =
  let sizes = Nicsim.Nic.state_sizes elt in
  let freqs = access_frequencies ported in
  let items = Array.of_list (List.map fst sizes) in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let hit = ported.Nicsim.Nic.demand.Nicsim.Perf.emem_hit in
    let levels = Array.of_list candidate_levels in
    let freq = Array.map (fun name -> Option.value ~default:0.0 (List.assoc_opt name freqs)) items in
    let size = Array.map (fun name -> List.assoc name sizes) items in
    let latency =
      Array.map
        (fun level ->
          match level with
          | Nicsim.Mem.EMEM -> Nicsim.Mem.emem_latency ~hit_ratio:hit
          | Nicsim.Mem.LMEM | Nicsim.Mem.CLS | Nicsim.Mem.CTM | Nicsim.Mem.IMEM ->
            Nicsim.Mem.base_latency level)
        levels
    in
    let problem =
      {
        Ilp.n_items = n;
        n_bins = Array.length levels;
        cost = (fun i b -> freq.(i) *. latency.(b));
        size = (fun i -> size.(i));
        capacity = (fun b -> Nicsim.Mem.capacity_bytes levels.(b));
      }
    in
    match Ilp.solve problem with
    | Some { Ilp.assignment; _ } ->
      Array.to_list (Array.mapi (fun i b -> (items.(i), levels.(b))) assignment)
    | None ->
      (* capacities cannot be satisfied: fall back to all-EMEM *)
      Nicsim.Mem.naive_placement (Array.to_list items)
  end

let placed naive placement =
  let config = { Nicsim.Nic.naive_port with Nicsim.Nic.placement = Some placement } in
  (placement, Nicsim.Nic.reconfigure naive config)

(** End-to-end: port naively to profile, solve, and return the naive port
    reconfigured under the suggested placement. *)
let apply (elt : Ast.element) (spec : Workload.spec) =
  let naive = Nicsim.Nic.port elt spec in
  placed naive (solve elt naive)

(** Exhaustive per-structure search used by expert emulation (§5.8): every
    feasible assignment of the hottest [limit] structures is measured on
    the simulator (colder structures keep the ILP suggestion) and the best
    peak throughput wins.  Unlike the ILP, this search sees bandwidth
    effects: spreading hot state across levels can win. *)
let expert_search ?(limit = 5) (elt : Ast.element) (spec : Workload.spec) =
  let naive = Nicsim.Nic.port elt spec in
  let ilp_placement = solve elt naive in
  let sizes = Nicsim.Nic.state_sizes elt in
  let freqs = access_frequencies naive in
  let by_freq =
    List.map (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name freqs))) sizes
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let hot = List.filteri (fun i _ -> i < limit) by_freq |> List.map fst in
  let items = Array.of_list hot in
  let levels = Array.of_list candidate_levels in
  let problem =
    {
      Ilp.n_items = Array.length items;
      n_bins = Array.length levels;
      cost = (fun _ _ -> 0.0);
      size = (fun i -> List.assoc items.(i) sizes);
      capacity = (fun b -> Nicsim.Mem.capacity_bytes levels.(b));
    }
  in
  let candidates = Ilp.enumerate problem in
  let best = ref None in
  List.iter
    (fun { Ilp.assignment; _ } ->
      let placement =
        Array.to_list (Array.mapi (fun i b -> (items.(i), levels.(b))) assignment)
        @ List.filter (fun (name, _) -> not (List.mem name hot)) ilp_placement
      in
      let _, ported = placed naive placement in
      let peak = Nicsim.Nic.peak ported in
      let better (p : Nicsim.Multicore.point) (q : Nicsim.Multicore.point) =
        (* throughput first; latency breaks near-ties *)
        q.Nicsim.Multicore.throughput_mpps > 1.005 *. p.Nicsim.Multicore.throughput_mpps
        || (q.Nicsim.Multicore.throughput_mpps >= 0.995 *. p.Nicsim.Multicore.throughput_mpps
           && q.Nicsim.Multicore.latency_us < p.Nicsim.Multicore.latency_us)
      in
      match !best with
      | Some (_, _, p) when not (better p peak) -> ()
      | _ -> best := Some (placement, ported, peak))
    candidates;
  match !best with
  | Some (placement, ported, _) -> (placement, ported)
  | None -> placed naive ilp_placement
