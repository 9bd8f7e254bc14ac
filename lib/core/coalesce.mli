(** Memory access coalescing via access-vector clustering (§4.4,
    Figure 13).

    Each stateful scalar gets an access vector over code blocks
    (p_i = accesses from block i / total accesses); K-means clusters
    variables with similar vectors into allocation packs fetched with one
    coalesced access sized to the pack. *)

(** The scalars of an element eligible for packing. *)
val scalar_names : Nf_lang.Ast.element -> string list

(** Normalized access vectors per scalar.  Statement ids are coarsened
    into code blocks (consecutive sids with equal execution counts), so
    co-accessed variables share dimensions. *)
val access_vectors :
  Nf_lang.Ast.element -> Nf_lang.Interp.profile -> (string * float array) list

(** Mean silhouette score of a clustering; used to select k. *)
val silhouette : float array array -> int array -> int -> float

(** Suggested packs: K-means with silhouette-selected k over the access
    vectors; singletons are not packs. *)
val suggest : Nf_lang.Ast.element -> Nf_lang.Interp.profile -> Nicsim.Perf.packs

(** Coalesced access size for a pack, in bytes (§4.4: access sizes are set
    to match the variable pack). *)
val pack_access_bytes : Nf_lang.Ast.element -> string list -> int

(** End-to-end: port naively to profile, cluster, and reconfigure that
    port with the packs. *)
val apply :
  Nf_lang.Ast.element -> Workload.spec -> Nicsim.Perf.packs * Nicsim.Nic.ported

(** Expert emulation (§5.8): exhaustively try every partition of the
    [limit] hottest scalars into packs and keep the configuration with the
    fewest cores-to-saturate (latency breaking ties). *)
val expert_search :
  ?limit:int ->
  Nf_lang.Ast.element ->
  Workload.spec ->
  Nicsim.Perf.packs * Nicsim.Nic.ported
