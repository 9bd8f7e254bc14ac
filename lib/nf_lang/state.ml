(** Runtime store for stateful NF data structures.

    Each structure runs in one of two modes mirroring the paper's framework
    dichotomy (§3.3):

    - [Host] — Click semantics: hash maps are elastic, resolve collisions by
      linear probing, and vectors grow dynamically.
    - [Nic] — Netronome semantics: sizes are fixed at allocation time, maps
      use a fixed set of buckets with a bounded number of slots each, and
      deletion only marks entries invalid.

    Every operation reports the number of memory probes it performed so the
    interpreter can attribute workload-specific memory traffic. *)

type mode = Host | Nic

type entry = { key : int array; mutable vals : int array; mutable valid : bool }

type map_state = {
  m_name : string;
  m_mode : mode;
  val_names : string array;
  mutable slots : entry option array;
  mutable m_size : int;
  mutable cursor : int;  (** slot of the last successful find/insert *)
  bucket_slots : int;  (** Nic mode: slots per bucket *)
  buckets : int;  (** Nic mode: bucket count, fixed (NIC maps never grow) *)
}

type vec_state = {
  v_name : string;
  v_mode : mode;
  mutable data : int array;
  mutable v_len : int;
  v_capacity : int;
}

type t = {
  scalars : (string, int ref) Hashtbl.t;
  arrays : (string, int array) Hashtbl.t;
  maps : (string, map_state) Hashtbl.t;
  vectors : (string, vec_state) Hashtbl.t;
  mode : mode;
}

let nic_bucket_slots = 4

(* [h mod n] for [h >= 0] and [n >= 1], with no division when [n] is a
   power of two (every P4lite table size is one): a division costs more
   than the rest of a lookup in an empty bucket. *)
let[@inline] reduce h n = if n land (n - 1) = 0 then h land (n - 1) else h mod n

let hash_key key =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length key - 1 do
    h := (!h lxor (key.(i) land 0xffffffff)) * 0x01000193 land 0x3fffffff
  done;
  !h

let create ?(mode = Host) (decls : Ast.state_decl list) =
  let t =
    {
      scalars = Hashtbl.create 16;
      arrays = Hashtbl.create 8;
      maps = Hashtbl.create 8;
      vectors = Hashtbl.create 8;
      mode;
    }
  in
  List.iter
    (fun d ->
      match d with
      | Ast.Scalar { name; init; _ } -> Hashtbl.replace t.scalars name (ref init)
      | Ast.Array { name; length; _ } -> Hashtbl.replace t.arrays name (Array.make length 0)
      | Ast.Map { name; val_fields; capacity; _ } ->
        let cap = max 8 capacity in
        let buckets = max 1 (cap / nic_bucket_slots) in
        Hashtbl.replace t.maps name
          {
            m_name = name;
            m_mode = mode;
            val_names = Array.of_list (List.map fst val_fields);
            slots = Array.make cap None;
            m_size = 0;
            cursor = -1;
            bucket_slots = nic_bucket_slots;
            buckets;
          }
      | Ast.Vector { name; capacity; _ } ->
        Hashtbl.replace t.vectors name
          {
            v_name = name;
            v_mode = mode;
            data = Array.make (max 4 capacity) 0;
            v_len = 0;
            v_capacity = max 4 capacity;
          })
    decls;
  t

let scalar_ref t name =
  match Hashtbl.find_opt t.scalars name with
  | Some r -> r
  | None -> failwith (Printf.sprintf "State: unknown scalar %s" name)

let array_of t name =
  match Hashtbl.find_opt t.arrays name with
  | Some a -> a
  | None -> failwith (Printf.sprintf "State: unknown array %s" name)

let map_of t name =
  match Hashtbl.find_opt t.maps name with
  | Some m -> m
  | None -> failwith (Printf.sprintf "State: unknown map %s" name)

let vec_of t name =
  match Hashtbl.find_opt t.vectors name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "State: unknown vector %s" name)

(* Lookups and inserts scan in loops, not local recursive functions,
   so a probe allocates no closure. *)
let key_equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

let field_index m field =
  let rec scan i =
    if i >= Array.length m.val_names then
      failwith (Printf.sprintf "State: map %s has no field %s" m.m_name field)
    else if String.equal m.val_names.(i) field then i
    else scan (i + 1)
  in
  scan 0

(* A lookup's outcome in one int, so the per-packet path builds no
   tuple: the probe count shifted left once, the found bit below it. *)
let[@inline] outcome ~found probes = (probes lsl 1) lor if found then 1 else 0
let lookup_found r = r land 1 = 1
let lookup_probes r = r lsr 1

(* -- Host (Click) semantics: open addressing with linear probing -- *)

let host_find m key =
  let cap = Array.length m.slots in
  let i = ref (reduce (hash_key key) cap) and n = ref 0 and r = ref (-1) in
  while !r < 0 do
    if !n > cap then r := outcome ~found:false !n
    else
      match m.slots.(!i) with
      | None -> r := outcome ~found:false (!n + 1)
      | Some e when e.valid && key_equal e.key key ->
        m.cursor <- !i;
        r := outcome ~found:true (!n + 1)
      | Some _ ->
        i := reduce (!i + 1) cap;
        incr n
  done;
  !r

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
      | Some _ -> place (reduce (i + 1) cap)
    in
    place (reduce (hash_key e.key) cap)
  in
  Array.iter (function Some e when e.valid -> reinsert e | Some _ | None -> ()) old

(* An insert keeps neither [key] nor [vals]: a new entry holds copies,
   and an update copies the values into the entry's own array, so the
   caller may reuse both. *)
let new_entry key vals = Some { key = Array.copy key; vals = Array.copy vals; valid = true }

let set_vals e vals =
  if Array.length e.vals = Array.length vals then Array.blit vals 0 e.vals 0 (Array.length vals)
  else e.vals <- Array.copy vals

let host_insert m key vals =
  if m.m_size * 4 >= Array.length m.slots * 3 then host_grow m;
  let cap = Array.length m.slots in
  let i = ref (reduce (hash_key key) cap) and n = ref 1 and placed = ref false in
  while not !placed do
    match m.slots.(!i) with
    | None ->
      m.slots.(!i) <- new_entry key vals;
      m.m_size <- m.m_size + 1;
      m.cursor <- !i;
      placed := true
    | Some e when e.valid && key_equal e.key key ->
      set_vals e vals;
      m.cursor <- !i;
      placed := true
    | Some e when not e.valid ->
      m.slots.(!i) <- new_entry key vals;
      m.cursor <- !i;
      placed := true
    | Some _ ->
      i := reduce (!i + 1) cap;
      incr n
  done;
  !n

(* -- Nic (Netronome) semantics: fixed buckets, bounded slots, no growth -- *)

let nic_find m key =
  (* a map with no valid entry misses after scanning a whole bucket,
     whichever bucket the key hashes to *)
  if m.m_size = 0 then outcome ~found:false m.bucket_slots
  else begin
    let base = reduce (hash_key key) m.buckets * m.bucket_slots in
    let s = ref 0 and r = ref (-1) in
    while !r < 0 do
      if !s >= m.bucket_slots then r := outcome ~found:false !s
      else
        match m.slots.(base + !s) with
        | Some e when e.valid && key_equal e.key key ->
          m.cursor <- base + !s;
          r := outcome ~found:true (!s + 1)
        | Some _ | None -> incr s
    done;
    !r
  end

let nic_insert m key vals =
  let bucket = reduce (hash_key key) m.buckets in
  let base = bucket * m.bucket_slots in
  (* First pass: update in place if present; remember first free slot. *)
  let free = ref (-1) in
  let probes = ref 0 in
  let updated = ref false in
  for s = 0 to m.bucket_slots - 1 do
    if not !updated then begin
      incr probes;
      match m.slots.(base + s) with
      | Some e when e.valid && key_equal e.key key ->
        set_vals e vals;
        m.cursor <- base + s;
        updated := true
      | Some e when (not e.valid) && !free < 0 -> free := base + s
      | Some _ -> ()
      | None -> if !free < 0 then free := base + s
    end
  done;
  if (not !updated) && !free >= 0 then begin
    m.slots.(!free) <- new_entry key vals;
    m.m_size <- m.m_size + 1;
    m.cursor <- !free
  end;
  (* Bucket overflow in NIC mode silently drops the insert, as a fixed
     firmware table would. *)
  !probes

(* -- Mode dispatch -- *)

(** [lookup m key] returns the outcome of {!find} packed in one int. *)
let lookup m key = match m.m_mode with Host -> host_find m key | Nic -> nic_find m key

(** [find m key] returns (found, probes). *)
let find m key =
  let r = lookup m key in
  (lookup_found r, lookup_probes r)

(** [insert m key vals] returns probes. *)
let insert m key vals =
  match m.m_mode with Host -> host_insert m key vals | Nic -> nic_insert m key vals

(** Read a value field at the cursor; 0 when the cursor is invalid. *)
let read m field =
  if m.cursor < 0 then 0
  else
    match m.slots.(m.cursor) with
    | Some e when e.valid -> e.vals.(field_index m field)
    | Some _ | None -> 0

let write m field v =
  if m.cursor >= 0 then
    match m.slots.(m.cursor) with
    | Some e when e.valid -> e.vals.(field_index m field) <- v
    | Some _ | None -> ()

(** Erase at cursor.  Host mode frees the slot (tombstone that can be
    reused); Nic mode only marks it invalid — the paper's `Vector.delete`
    distinction applied to maps. *)
let erase m =
  if m.cursor >= 0 then
    match m.slots.(m.cursor) with
    | Some e when e.valid ->
      e.valid <- false;
      m.m_size <- m.m_size - 1
    | Some _ | None -> ()

let map_size m = m.m_size

(* -- Vectors -- *)

let vec_append v x =
  (match v.v_mode with
  | Host ->
    if v.v_len >= Array.length v.data then begin
      let bigger = Array.make (Array.length v.data * 2) 0 in
      Array.blit v.data 0 bigger 0 v.v_len;
      v.data <- bigger
    end
  | Nic -> ());
  if v.v_len < Array.length v.data then begin
    v.data.(v.v_len) <- x;
    v.v_len <- v.v_len + 1
  end

let vec_get v i = if i >= 0 && i < v.v_len then v.data.(i) else 0
let vec_set v i x = if i >= 0 && i < v.v_len then v.data.(i) <- x
let vec_length v = v.v_len
