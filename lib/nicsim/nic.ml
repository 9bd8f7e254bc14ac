(** End-to-end NIC evaluation pipeline.

    [port] is the "manually port and benchmark" step of the paper's
    methodology: lower an element, compile it with NFCC-sim under a porting
    configuration (accelerators, placement, packing), profile it under a
    workload with NIC data-structure semantics, and measure operating
    points on the multicore model.  Experiments and Clara's training both
    go through this entry point. *)

open Nf_lang

(** A porting configuration — the knobs the paper's insights tune. *)
type port_config = {
  accel_apis : string list;  (** API calls offloaded to ASIC engines *)
  placement : Mem.placement option;  (** None = naive all-EMEM *)
  packs : Perf.packs;  (** coalesced variable packs *)
}

let naive_port = { accel_apis = []; placement = None; packs = [] }

type ported = {
  elt : Ast.element;
  spec : Workload.spec;
  config : port_config;
  ir : Nf_ir.Ir.func;
  compiled : Nfcc.compiled;
  profile : Interp.profile;
  demand : Perf.demand;
}

let state_names (elt : Ast.element) = List.map Ast.state_name elt.Ast.state

let state_sizes (elt : Ast.element) =
  List.map (fun d -> (Ast.state_name d, Ast.state_size_bytes d)) elt.Ast.state

(* The demand of a compiled, profiled NF under a configuration. *)
let assemble config (elt : Ast.element) spec ir compiled profile =
  let placement =
    match config.placement with
    | Some p -> p
    | None -> Mem.naive_placement (state_names elt)
  in
  let demand = Perf.demand_of ~packs:config.packs ~placement ~spec elt compiled profile in
  { elt; spec; config; ir; compiled; profile; demand }

let compile_for config ir = Nfcc.compile ~config:(Accel.accel_config config.accel_apis) ir

(** Compile, profile and assemble the demand of an element already
    lowered to [ir], under a porting configuration and workload.

    [packets] must be the trace [Workload.generate spec] would produce,
    as fresh packets (the interpreter mutates them); omitted, the
    interpreter steps through copies of [Workload.template spec], the
    memoized trace, one scratch packet at a time. *)
let port_ir ?(config = naive_port) ?packets (elt : Ast.element) ir (spec : Workload.spec) : ported =
  let compiled = compile_for config ir in
  let interp = Interp.create ~mode:State.Nic elt in
  let profile =
    match packets with
    | Some ps -> Interp.run interp ps
    | None -> Interp.run_copies interp (Workload.template spec)
  in
  assemble config elt spec ir compiled profile

let port ?config ?packets elt spec =
  port_ir ?config ?packets elt (Nf_frontend.Lower.lower_element elt) spec

(** Re-derive the demand of an already-ported NF under a new porting
    configuration without re-lowering or re-running the interpreter
    (the profile depends on none of the knobs); only an accelerator
    change recompiles the IR. *)
let reconfigure (p : ported) (config : port_config) : ported =
  let compiled =
    if config.accel_apis = p.config.accel_apis then p.compiled else compile_for config p.ir
  in
  assemble config p.elt p.spec p.ir compiled p.profile

let measure ?(nic = Multicore.default_nic) ?cores (p : ported) =
  let cores = match cores with Some c -> c | None -> nic.Multicore.n_cores in
  Multicore.measure ~nic p.demand ~cores

let sweep ?(nic = Multicore.default_nic) (p : ported) = Multicore.sweep ~nic p.demand

let optimal_cores ?(nic = Multicore.default_nic) (p : ported) =
  Multicore.optimal_cores ~nic p.demand

(** Peak throughput across the core sweep, with its latency. *)
let peak ?(nic = Multicore.default_nic) (p : ported) =
  let points = sweep ~nic p in
  List.fold_left
    (fun acc pt ->
      if pt.Multicore.throughput_mpps > acc.Multicore.throughput_mpps then pt else acc)
    (List.hd points) points
