(** Sharded flow table (see shards.mli). *)

(* One shard is a scan-resistant stamp LRU guarded by its own mutex: a
   lookup hit bumps the entry's stamp from a per-shard logical clock and
   sets its hit mark, which a re-install keeps.  Eviction drops the
   minimum stamp among the never-hit entries other than the one being
   installed, and the minimum stamp overall only when every other entry
   has been hit.  Served traffic mixes hot corpus keys with one-shot
   inline programs that are never asked for again; under this rule a
   one-shot install displaces another never-hit entry, not a hot key.
   Keys are spread by FNV-1a over the key string — a pure function of
   the bytes, so shard assignment never depends on CLARA_JOBS, domain
   count or insertion order. *)

type 'a entry = { value : 'a; mutable stamp : int; mutable hit : bool }

type 'a shard = {
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_installs : int;
  mutable s_evictions : int;
  occupancy : Obs.Metrics.gauge;
}

type 'a t = { shards : 'a shard array }

let m_hits =
  Obs.Metrics.counter ~help:"Flow-table lookups answered from an installed entry"
    "clara_fastpath_hits_total"

let m_misses =
  Obs.Metrics.counter ~help:"Flow-table lookups that fell through to the slow path"
    "clara_fastpath_misses_total"

let m_installs =
  Obs.Metrics.counter ~help:"Flow entries installed by the slow path" "clara_slowpath_installs_total"

let m_evictions =
  Obs.Metrics.counter ~help:"Flow entries evicted under capacity pressure"
    "clara_fastpath_evictions_total"

let occupancy_gauge i =
  Obs.Metrics.gauge ~help:"Installed flow entries per shard"
    ~labels:[ ("shard", string_of_int i) ]
    "clara_fastpath_shard_occupancy"

let create ?(shards = 8) ~capacity () =
  if shards < 1 then invalid_arg "Fastpath.Shards.create: shards must be >= 1";
  if capacity < 0 then invalid_arg "Fastpath.Shards.create: capacity must be >= 0";
  (* the total is split across shards, rounding the per-shard bound up so
     a small capacity still caches (total may round up to [shards]) *)
  let per_shard = if capacity = 0 then 0 else max 1 ((capacity + shards - 1) / shards) in
  { shards =
      Array.init shards (fun i ->
          { lock = Mutex.create ();
            table = Hashtbl.create (max 8 per_shard);
            cap = per_shard;
            tick = 0;
            s_hits = 0;
            s_misses = 0;
            s_installs = 0;
            s_evictions = 0;
            occupancy = occupancy_gauge i }) }

let shard_count t = Array.length t.shards
let capacity t = Array.fold_left (fun acc s -> acc + s.cap) 0 t.shards

(* FNV-1a, 64-bit, over the key bytes. *)
let hash_key key =
  let h = ref (-3750763034362895579L) (* 0xCBF29CE484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    key;
  Int64.to_int !h land max_int

let shard_of_key t key = hash_key key mod Array.length t.shards

let with_shard s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let lookup s key ~count_miss =
  match Hashtbl.find_opt s.table key with
  | Some e ->
    s.tick <- s.tick + 1;
    e.stamp <- s.tick;
    e.hit <- true;
    s.s_hits <- s.s_hits + 1;
    Obs.Metrics.inc m_hits;
    Some e.value
  | None ->
    if count_miss then begin
      s.s_misses <- s.s_misses + 1;
      Obs.Metrics.inc m_misses
    end;
    None

let find t key =
  let s = t.shards.(shard_of_key t key) in
  with_shard s (fun () -> lookup s key ~count_miss:true)

let probe t key =
  let s = t.shards.(shard_of_key t key) in
  with_shard s (fun () -> lookup s key ~count_miss:false)

(* Never-hit entries go before hit ones, then the oldest stamp first. *)
let evicts_before a b = if Bool.equal a.hit b.hit then a.stamp < b.stamp else b.hit

(* [keep], the key being installed, is never the victim. *)
let evict_oldest s ~keep =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | _ when String.equal key keep -> acc
        | Some (_, v) when not (evicts_before e v) -> acc
        | _ -> Some (key, e))
      s.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove s.table key;
    s.s_evictions <- s.s_evictions + 1;
    Obs.Metrics.inc m_evictions
  | None -> ()

let install t key value =
  let s = t.shards.(shard_of_key t key) in
  if s.cap > 0 then
    with_shard s (fun () ->
        s.tick <- s.tick + 1;
        (match Hashtbl.find_opt s.table key with
        | Some e -> Hashtbl.replace s.table key { value; stamp = s.tick; hit = e.hit }
        | None ->
          Hashtbl.add s.table key { value; stamp = s.tick; hit = false };
          s.s_installs <- s.s_installs + 1;
          Obs.Metrics.inc m_installs);
        while Hashtbl.length s.table > s.cap do
          evict_oldest s ~keep:key
        done;
        Obs.Metrics.set_gauge s.occupancy (float_of_int (Hashtbl.length s.table)))

let fold_shards t f = Array.fold_left (fun acc s -> acc + with_shard s (fun () -> f s)) 0 t.shards
let length t = fold_shards t (fun s -> Hashtbl.length s.table)
let shard_length t i = with_shard t.shards.(i) (fun () -> Hashtbl.length t.shards.(i).table)
let hits t = fold_shards t (fun s -> s.s_hits)
let misses t = fold_shards t (fun s -> s.s_misses)
let installs t = fold_shards t (fun s -> s.s_installs)
let evictions t = fold_shards t (fun s -> s.s_evictions)
