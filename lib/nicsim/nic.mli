(** End-to-end NIC evaluation pipeline — the "manually port and benchmark"
    step of the paper's methodology, against the simulator. *)

(** The porting knobs Clara's insights tune. *)
type port_config = {
  accel_apis : string list;  (** API calls offloaded to ASIC engines *)
  placement : Mem.placement option;  (** None = naive all-EMEM *)
  packs : Perf.packs;  (** coalesced variable packs *)
}

(** Faithful translation: no accelerators, all state in EMEM, no packing. *)
val naive_port : port_config

(** A ported NF: lowered, compiled, profiled under a workload, with its
    assembled per-packet demand. *)
type ported = {
  elt : Nf_lang.Ast.element;
  spec : Workload.spec;
  config : port_config;
  ir : Nf_ir.Ir.func;
  compiled : Nfcc.compiled;
  profile : Nf_lang.Interp.profile;
  demand : Perf.demand;
}

(** The element's stateful structure names. *)
val state_names : Nf_lang.Ast.element -> string list

(** The element's structure footprints in bytes (ILP sizes). *)
val state_sizes : Nf_lang.Ast.element -> (string * int) list

(** Compile, profile and assemble the demand of an element already
    lowered to the given IR, under a porting configuration and workload.
    [packets] replays a pre-generated trace (pass fresh
    {!Nf_lang.Packet.copy} copies — the interpreter mutates packets); it
    must equal the trace [Workload.generate spec] would produce. *)
val port_ir :
  ?config:port_config ->
  ?packets:Nf_lang.Packet.t list ->
  Nf_lang.Ast.element ->
  Nf_ir.Ir.func ->
  Workload.spec ->
  ported

(** {!port_ir} on the element's own lowering. *)
val port :
  ?config:port_config -> ?packets:Nf_lang.Packet.t list -> Nf_lang.Ast.element -> Workload.spec -> ported

(** Re-derive the demand under a new configuration from the port's IR and
    profile, without re-lowering or re-running the interpreter (the
    profile depends on no knob); an accelerator change recompiles the
    IR. *)
val reconfigure : ported -> port_config -> ported

(** Measure at [cores] (default: all). *)
val measure : ?nic:Multicore.nic -> ?cores:int -> ported -> Multicore.point

val sweep : ?nic:Multicore.nic -> ported -> Multicore.point list
val optimal_cores : ?nic:Multicore.nic -> ported -> int

(** The highest-throughput point of the sweep. *)
val peak : ?nic:Multicore.nic -> ported -> Multicore.point
