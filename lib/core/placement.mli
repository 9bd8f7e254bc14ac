(** NF state placement via ILP (§4.3, Figure 12).

    Minimizes total weighted access latency — access frequencies from a
    workload profile, per-level latencies from the memory hierarchy —
    subject to level capacities.  Deliberately ignores per-level
    bandwidth, the source of the small expert-emulation gap the paper
    analyzes in §5.8. *)

(** Levels shared NF state may occupy (per-core LMEM is excluded). *)
val candidate_levels : Nicsim.Mem.level list

(** Measured per-structure accesses per packet under the ported profile. *)
val access_frequencies : Nicsim.Nic.ported -> (string * float) list

(** Solve the placement ILP for an element given its profiled port.
    Falls back to all-EMEM if capacities cannot be satisfied. *)
val solve : Nf_lang.Ast.element -> Nicsim.Nic.ported -> Nicsim.Mem.placement

(** End-to-end: port naively to profile, solve, and reconfigure that port
    under the suggested placement. *)
val apply :
  Nf_lang.Ast.element -> Workload.spec -> Nicsim.Mem.placement * Nicsim.Nic.ported

(** Expert emulation (§5.8): exhaustively measure every feasible placement
    of the [limit] hottest structures (colder ones keep the ILP answer)
    and return the best-performing one.  Unlike the ILP, the search sees
    bandwidth-aggregation effects. *)
val expert_search :
  ?limit:int ->
  Nf_lang.Ast.element ->
  Workload.spec ->
  Nicsim.Mem.placement * Nicsim.Nic.ported
