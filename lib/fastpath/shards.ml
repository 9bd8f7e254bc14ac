(** The flow table (see shards.mli). *)

(* One hash table over the whole budget, with every entry on one of two
   recency queues: [fresh] holds the entries never hit since install,
   [hot] the ones hit at least once, each oldest first.  A lookup hit
   moves its entry to the newest end of [hot] and a re-install to the
   newest end of the queue its hit mark names, so each queue stays in
   order of last touch and the victim is the oldest fresh entry, else the
   oldest hot one: the same choice as a scan for the minimum logical
   stamp among never-hit entries, then among all, in O(1).  The key being
   installed is the newest entry of its queue, so skipping it costs one
   step.  Served traffic mixes hot corpus keys with one-shot inline
   programs that are never asked for again; under this rule a one-shot
   install displaces another never-hit entry, not a hot key.

   Each key also carries its label, FNV-1a over the key bytes modulo
   [shards]: a pure function of the bytes, so it never depends on
   CLARA_JOBS, domain count or insertion order.  Labels place nothing;
   they name the flight ring and count entries for the occupancy
   gauges. *)

type 'a link =
  | Nil
  | Node of {
      key : string;
      label : int;
      mutable value : 'a;
      mutable hit : bool;
      mutable older : 'a link;
      mutable newer : 'a link;
    }

type 'a queue = { mutable oldest : 'a link; mutable newest : 'a link }

type 'a t = {
  cap : int;
  table : (string, 'a link) Hashtbl.t;  (* holds only [Node]s *)
  fresh : 'a queue;  (* never hit since install *)
  hot : 'a queue;  (* hit at least once *)
  per_label : int array;
  occupancy : Obs.Metrics.gauge array;
  mutable hits : int;
  mutable misses : int;
  mutable installs : int;
  mutable evictions : int;
}

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
  Obs.Metrics.gauge ~help:"Installed flow entries per shard label"
    ~labels:[ ("shard", string_of_int i) ]
    "clara_fastpath_shard_occupancy"

let create ?(shards = 8) ~capacity () =
  if shards < 1 then invalid_arg "Fastpath.Shards.create: shards must be >= 1";
  if capacity < 0 then invalid_arg "Fastpath.Shards.create: capacity must be >= 0";
  { cap = capacity;
    table = Hashtbl.create (max 8 (min capacity 4096));
    fresh = { oldest = Nil; newest = Nil };
    hot = { oldest = Nil; newest = Nil };
    per_label = Array.make shards 0;
    occupancy = Array.init shards occupancy_gauge;
    hits = 0;
    misses = 0;
    installs = 0;
    evictions = 0 }

let shard_count t = Array.length t.per_label
let capacity t = t.cap

(* FNV-1a, 64-bit, over the key bytes. *)
let hash_key key =
  let h = ref (-3750763034362895579L) (* 0xCBF29CE484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    key;
  Int64.to_int !h land max_int

let shard_of_key t key = hash_key key mod Array.length t.per_label

(* -- the two queues -- *)

let unlink q = function
  | Nil -> ()
  | Node n ->
    (match n.older with Nil -> q.oldest <- n.newer | Node o -> o.newer <- n.newer);
    (match n.newer with Nil -> q.newest <- n.older | Node y -> y.older <- n.older);
    n.older <- Nil;
    n.newer <- Nil

let push_newest q link =
  match link with
  | Nil -> ()
  | Node n ->
    n.older <- q.newest;
    (match q.newest with Nil -> q.oldest <- link | Node y -> y.newer <- link);
    q.newest <- link

let queue t hit = if hit then t.hot else t.fresh

(* -- lookups -- *)

let lookup t key ~count_miss =
  match Hashtbl.find_opt t.table key with
  | Some (Node n as link) ->
    unlink (queue t n.hit) link;
    n.hit <- true;
    push_newest t.hot link;
    t.hits <- t.hits + 1;
    Obs.Metrics.inc m_hits;
    Some n.value
  | Some Nil | None ->
    if count_miss then begin
      t.misses <- t.misses + 1;
      Obs.Metrics.inc m_misses
    end;
    None

let find t key = lookup t key ~count_miss:true
let probe t key = lookup t key ~count_miss:false

(* -- installs -- *)

let count_label t label delta =
  t.per_label.(label) <- t.per_label.(label) + delta;
  Obs.Metrics.set_gauge t.occupancy.(label) (float_of_int t.per_label.(label))

(* The oldest entry of [q] other than [keep], the newest one. *)
let oldest_but q ~keep =
  match q.oldest with Node n as link when link == keep -> n.newer | link -> link

let evict t ~keep =
  let victim = match oldest_but t.fresh ~keep with Nil -> oldest_but t.hot ~keep | link -> link in
  match victim with
  | Nil -> ()
  | Node n ->
    unlink (queue t n.hit) victim;
    Hashtbl.remove t.table n.key;
    count_label t n.label (-1);
    t.evictions <- t.evictions + 1;
    Obs.Metrics.inc m_evictions

let install t key value =
  if t.cap > 0 then
    match Hashtbl.find_opt t.table key with
    | Some (Node n as link) ->
      let q = queue t n.hit in
      n.value <- value;
      unlink q link;
      push_newest q link
    | Some Nil | None ->
      let label = shard_of_key t key in
      let link = Node { key; label; value; hit = false; older = Nil; newer = Nil } in
      Hashtbl.replace t.table key link;
      push_newest t.fresh link;
      count_label t label 1;
      t.installs <- t.installs + 1;
      Obs.Metrics.inc m_installs;
      if Hashtbl.length t.table > t.cap then evict t ~keep:link

let length t = Hashtbl.length t.table
let shard_length t i = t.per_label.(i)
let hits t = t.hits
let misses t = t.misses
let installs t = t.installs
let evictions t = t.evictions
