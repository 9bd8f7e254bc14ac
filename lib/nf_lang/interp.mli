(** Host interpreter for NF elements: executes a handler over packets
    while profiling exactly what Clara's workload-specific analyses need —
    per-statement execution counts (mapped to IR blocks by the frontend),
    per-global access attribution (coalescing access vectors, placement
    frequencies), hash-map probe counts under Click or NIC data-structure
    semantics, API call counts, and verdicts. *)

(** Verdict of one packet. *)
type action = Emitted of int | Dropped

type profile = {
  stmt_counts : (int, int) Hashtbl.t;  (** sid -> executions *)
  global_reads : (string * int, int) Hashtbl.t;  (** (global, sid) -> reads *)
  global_writes : (string * int, int) Hashtbl.t;
  api_counts : (string, int) Hashtbl.t;
  cond_counts : (int, int) Hashtbl.t;
      (** While/For sid -> condition evaluations (iterations + entries);
          the execution count of the loop-header block in the lowered CFG *)
  map_ops : (string, int ref * int ref) Hashtbl.t;  (** map -> (ops, probes) *)
  mutable packets : int;
  mutable emitted : int;
  mutable dropped : int;
}

val new_profile : unit -> profile

(** Executions of statement [sid] (0 if never run). *)
val stmt_count : profile -> int -> int

(** Condition evaluations of loop [sid]. *)
val cond_count : profile -> int -> int

(** Total reads+writes of global [g]. *)
val global_accesses : profile -> string -> int

(** Accesses of global [g] attributed to statement [sid]. *)
val global_accesses_at : profile -> string -> int -> int

(** Mean probes per operation on a map; 1.0 when never used. *)
val mean_probes : profile -> string -> float

(** The element resolved by {!create}: local slots, state cells and dense
    profile counters. *)
type prog

(** A running interpreter instance. *)
type t = {
  elt : Ast.element;
  state : State.t;
  profile : profile;
  mutable time : int;  (** virtual clock: packet sequence number *)
  prog : prog;
}

exception Handler_return

(** Raised when a loop exceeds its fuel (runaway While). *)
exception Fuel_exhausted of string

(** Fresh interpreter; [mode] selects Click ([State.Host]) or reverse-ported
    NIC ([State.Nic]) data-structure semantics (§3.3).  The element is
    resolved here, once; unknown state or subroutine names still fail only
    when executed. *)
val create : ?mode:State.mode -> Ast.element -> t

val loop_fuel : int

(** Process one packet (mutating it) and return the verdict.  The profile
    is up to date when it returns or raises. *)
val push : t -> Packet.t -> action

(** Process a packet list; returns the accumulated profile. *)
val run : t -> Packet.t list -> profile

(** {!run} over fresh copies of the packets, without mutating them or
    allocating a packet each: one scratch packet is reset from each in
    turn ({!Packet.assign}).  The profile equals {!run}'s over
    [List.map Packet.copy template]. *)
val run_copies : t -> Packet.t list -> profile
