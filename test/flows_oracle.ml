(* The scan-based stamp LRU that {!Fastpath.Shards}' two recency queues
   replaced, kept as a test-only oracle for one table.  A lookup hit
   bumps the entry's stamp from a logical clock and sets its hit mark,
   which a re-install keeps; an install over the bound scans the table
   for the victim: the minimum stamp among the never-hit entries other
   than the key being installed, and the minimum stamp overall only when
   every other entry has been hit.  The differential suite drives both
   tables with the same seeded operations and compares every outcome. *)

type 'a entry = { value : 'a; mutable stamp : int; mutable hit : bool }

type 'a t = {
  table : (string, 'a entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable installs : int;
  mutable evictions : int;
}

let create ~capacity =
  { table = Hashtbl.create 8; cap = capacity; tick = 0; hits = 0; misses = 0; installs = 0;
    evictions = 0 }

let lookup t key ~count_miss =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.tick <- t.tick + 1;
    e.stamp <- t.tick;
    e.hit <- true;
    t.hits <- t.hits + 1;
    Some e.value
  | None ->
    if count_miss then t.misses <- t.misses + 1;
    None

let find t key = lookup t key ~count_miss:true
let probe t key = lookup t key ~count_miss:false

(* Never-hit entries go before hit ones, then the oldest stamp first. *)
let evicts_before a b = if Bool.equal a.hit b.hit then a.stamp < b.stamp else b.hit

(* [keep], the key being installed, is never the victim. *)
let evict_oldest t ~keep =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | _ when String.equal key keep -> acc
        | Some (_, v) when not (evicts_before e v) -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | None -> ()

let install t key value =
  if t.cap > 0 then begin
    t.tick <- t.tick + 1;
    (match Hashtbl.find_opt t.table key with
    | Some e -> Hashtbl.replace t.table key { value; stamp = t.tick; hit = e.hit }
    | None ->
      Hashtbl.add t.table key { value; stamp = t.tick; hit = false };
      t.installs <- t.installs + 1);
    while Hashtbl.length t.table > t.cap do
      evict_oldest t ~keep:key
    done
  end

let length t = Hashtbl.length t.table
