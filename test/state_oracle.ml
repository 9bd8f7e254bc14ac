(* The map lookups and inserts {!Nf_lang.State} ran before its probes
   became loops, kept as a test-only oracle over the same map records:
   local recursive scans, a [mod] per slot step, the bucket count divided
   out on every call, no shortcut for an empty NIC map, and entries that
   keep the caller's key and value arrays ({!Interp_oracle} passes fresh
   ones).  {!Interp_oracle} runs every map operation through it, so the
   interpreter differential also covers the store. *)

open Nf_lang
open State

let key_equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

let host_find m key =
  let cap = Array.length m.slots in
  let start = hash_key key mod cap in
  let rec probe i n =
    if n > cap then (false, n)
    else
      match m.slots.(i) with
      | None -> (false, n + 1)
      | Some e when e.valid && key_equal e.key key ->
        m.cursor <- i;
        (true, n + 1)
      | Some _ -> probe ((i + 1) mod cap) (n + 1)
  in
  probe start 0

let host_grow m =
  let old = m.slots in
  m.slots <- Array.make (Array.length old * 2) None;
  m.m_size <- 0;
  let reinsert e =
    let cap = Array.length m.slots in
    let rec place i =
      match m.slots.(i) with
      | None ->
        m.slots.(i) <- Some e;
        m.m_size <- m.m_size + 1
      | Some _ -> place ((i + 1) mod cap)
    in
    place (hash_key e.key mod cap)
  in
  Array.iter (function Some e when e.valid -> reinsert e | Some _ | None -> ()) old

let host_insert m key vals =
  if m.m_size * 4 >= Array.length m.slots * 3 then host_grow m;
  let cap = Array.length m.slots in
  let rec probe i n =
    match m.slots.(i) with
    | None ->
      m.slots.(i) <- Some { key; vals; valid = true };
      m.m_size <- m.m_size + 1;
      m.cursor <- i;
      n + 1
    | Some e when e.valid && key_equal e.key key ->
      e.vals <- vals;
      m.cursor <- i;
      n + 1
    | Some e when not e.valid ->
      m.slots.(i) <- Some { key; vals; valid = true };
      m.cursor <- i;
      n + 1
    | Some _ -> probe ((i + 1) mod cap) (n + 1)
  in
  probe (hash_key key mod cap) 0

let nic_bucket_count m = max 1 (Array.length m.slots / m.bucket_slots)

let nic_find m key =
  let bucket = hash_key key mod nic_bucket_count m in
  let base = bucket * m.bucket_slots in
  let rec scan s n =
    if s >= m.bucket_slots then (false, n)
    else
      match m.slots.(base + s) with
      | Some e when e.valid && key_equal e.key key ->
        m.cursor <- base + s;
        (true, n + 1)
      | Some _ | None -> scan (s + 1) (n + 1)
  in
  scan 0 0

let nic_insert m key vals =
  let bucket = hash_key key mod nic_bucket_count m in
  let base = bucket * m.bucket_slots in
  let free = ref (-1) in
  let probes = ref 0 in
  let updated = ref false in
  for s = 0 to m.bucket_slots - 1 do
    if not !updated then begin
      incr probes;
      match m.slots.(base + s) with
      | Some e when e.valid && key_equal e.key key ->
        e.vals <- vals;
        m.cursor <- base + s;
        updated := true
      | Some e when (not e.valid) && !free < 0 -> free := base + s
      | Some _ -> ()
      | None -> if !free < 0 then free := base + s
    end
  done;
  if (not !updated) && !free >= 0 then begin
    m.slots.(!free) <- Some { key; vals; valid = true };
    m.m_size <- m.m_size + 1;
    m.cursor <- !free
  end;
  !probes

let find m key = match m.m_mode with Host -> host_find m key | Nic -> nic_find m key
let insert m key vals = match m.m_mode with Host -> host_insert m key vals | Nic -> nic_insert m key vals
