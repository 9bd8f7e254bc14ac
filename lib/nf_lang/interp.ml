(** Host interpreter for NF elements.

    Executes an element's handler over packets while profiling exactly the
    quantities Clara's workload-specific analyses need (§4.3–4.5):

    - per-statement execution counts (mapped to IR basic blocks by the
      frontend, giving block execution frequencies under a workload);
    - per-global read/write counts attributed to statements (access vectors
      for memory coalescing, access frequencies for state placement);
    - hash-map probe counts in either Click or NIC data-structure mode;
    - API call counts and packet verdicts.

    {!create} resolves the element once, into closures: locals become
    slots of an int array, state names become their {!State} cells, and
    every profiled key (statement, loop condition, (global, statement)
    pair, API name, map) becomes a dense counter index.  Execution counts
    into int arrays; when {!run} or {!push} returns or raises, the counts
    are flushed into the profile's tables, new keys in first-touch order,
    so every table holds the same bindings in the same iteration order as
    if each event had been recorded in it as it happened. *)

type action = Emitted of int | Dropped

type profile = {
  stmt_counts : (int, int) Hashtbl.t;  (** sid -> executions *)
  global_reads : (string * int, int) Hashtbl.t;  (** (global, sid) -> reads *)
  global_writes : (string * int, int) Hashtbl.t;
  api_counts : (string, int) Hashtbl.t;
  cond_counts : (int, int) Hashtbl.t;
      (** sid of a While/For -> number of condition evaluations, i.e. loop
          iterations + entries; this is the execution count of the loop
          header block in the lowered CFG *)
  map_ops : (string, int ref * int ref) Hashtbl.t;  (** map -> (ops, probes) *)
  mutable packets : int;
  mutable emitted : int;
  mutable dropped : int;
}

let new_profile () =
  {
    stmt_counts = Hashtbl.create 256;
    global_reads = Hashtbl.create 64;
    global_writes = Hashtbl.create 64;
    api_counts = Hashtbl.create 16;
    cond_counts = Hashtbl.create 32;
    map_ops = Hashtbl.create 8;
    packets = 0;
    emitted = 0;
    dropped = 0;
  }

let stmt_count p sid = Option.value ~default:0 (Hashtbl.find_opt p.stmt_counts sid)
let cond_count p sid = Option.value ~default:0 (Hashtbl.find_opt p.cond_counts sid)

(** Total accesses (reads + writes) to global [g], across all statements. *)
let global_accesses p g =
  let total tbl =
    Hashtbl.fold (fun (name, _) c acc -> if String.equal name g then acc + c else acc) tbl 0
  in
  total p.global_reads + total p.global_writes

(** Accesses to global [g] attributed to statement [sid]. *)
let global_accesses_at p g sid =
  Option.value ~default:0 (Hashtbl.find_opt p.global_reads (g, sid))
  + Option.value ~default:0 (Hashtbl.find_opt p.global_writes (g, sid))

(** Mean probes per operation for a map; 1.0 when the map was never used. *)
let mean_probes p map =
  match Hashtbl.find_opt p.map_ops map with
  | Some (ops, probes) when !ops > 0 -> float_of_int !probes /. float_of_int !ops
  | Some _ | None -> 1.0

(* -- dense counters -- *)

(* One profile table's keys, numbered as [create] meets them, with their
   counts since the last flush and the indices touched since then, in
   first-touch order (a count of 0 means untouched). *)
type 'k counter = {
  index : ('k, int) Hashtbl.t;
  mutable rev_keys : 'k list;
  mutable keys : 'k array;
  mutable counts : int array;
  mutable order : int array;
  mutable touched : int;
}

let counter () =
  { index = Hashtbl.create 32; rev_keys = []; keys = [||]; counts = [||]; order = [||]; touched = 0 }

let intern c k =
  match Hashtbl.find_opt c.index k with
  | Some i -> i
  | None ->
    let i = Hashtbl.length c.index in
    Hashtbl.add c.index k i;
    c.rev_keys <- k :: c.rev_keys;
    i

(* Size the arrays once every key is interned. *)
let seal c =
  c.keys <- Array.of_list (List.rev c.rev_keys);
  c.counts <- Array.make (Array.length c.keys) 0;
  c.order <- Array.make (Array.length c.keys) 0

let[@inline] bump c i =
  let n = c.counts.(i) in
  if n = 0 then begin
    c.order.(c.touched) <- i;
    c.touched <- c.touched + 1
  end;
  c.counts.(i) <- n + 1

let flush_counts c tbl =
  for k = 0 to c.touched - 1 do
    let i = c.order.(k) in
    let key = c.keys.(i) in
    Hashtbl.replace tbl key (c.counts.(i) + Option.value ~default:0 (Hashtbl.find_opt tbl key));
    c.counts.(i) <- 0
  done;
  c.touched <- 0

(* -- the resolved element -- *)

(* A state name resolved at [create]; a name the store lacks fails only
   when executed, through the same {!State} lookup as before. *)
type 'a cell = Found of 'a | Missing of string

let scalar st = function Found r -> r | Missing name -> State.scalar_ref st name
let array st = function Found a -> a | Missing name -> State.array_of st name
let map st = function Found m -> m | Missing name -> State.map_of st name
let vec st = function Found v -> v | Missing name -> State.vec_of st name

(* What one packet's execution reads besides the element's state: one
   frame per interpreter, pointed at each packet in turn. *)
type frame = { locals : int array; mutable pkt : Packet.t; mutable time : int }

type prog = {
  handler : frame -> unit;
  frame : frame;  (** its [locals] are cleared per packet: a read before any write sees 0 *)
  action : int;  (** slot of the verdict local *)
  stmts : int counter;
  conds : int counter;
  reads : (string * int) counter;
  writes : (string * int) counter;
  apis : string counter;
  map_ops : string counter;
  probes : int array;  (** per map, beside [map_ops] *)
}

exception Handler_return
exception Fuel_exhausted of string

let loop_fuel = 100_000

let truth v = v <> 0

(* Evaluate [es] into [buf], left to right.  A call keeps no reference
   to its arguments, so each call site owns one buffer. *)
let fill buf es f =
  for k = 0 to Array.length es - 1 do
    buf.(k) <- es.(k) f
  done

let is_hdr = function Ast.Hdr _ -> true | _ -> false
let hdr_field = function Ast.Hdr h -> h | _ -> invalid_arg "Interp.hdr_field"

(* Each closure keeps the shape of the tree walk it replaces, down to the
   argument positions of the calls it makes, so effects happen in the same
   order.  Three shapes every match-action table runs per packet get one
   closure each instead of a tree of them (superinstructions): a map
   lookup keyed by header fields only, a branch on a local compared with
   a constant, and a scalar counter bump [g = g + k]. *)
let compile (elt : Ast.element) (st : State.t) =
  let stmts = counter () and conds = counter () and reads = counter () and writes = counter () in
  let apis = counter () and map_ops = counter () and locals = counter () in
  let action = intern locals "__action" and probes = ref [||] in
  let cell tbl name = match Hashtbl.find_opt tbl name with Some x -> Found x | None -> Missing name in
  let scalars = st.State.scalars and arrays = st.State.arrays in
  let maps = st.State.maps and vectors = st.State.vectors in
  let record ops n =
    bump map_ops ops;
    !probes.(ops) <- !probes.(ops) + n
  in
  let rec expr sid (e : Ast.expr) : frame -> int =
    let ex = expr sid in
    match e with
    | Ast.Int n -> fun _ -> n
    | Ast.Local v ->
      let s = intern locals v in
      fun f -> f.locals.(s)
    | Ast.Global v ->
      let r = intern reads (v, sid) and c = cell scalars v in
      fun _ ->
        bump reads r;
        !(scalar st c)
    | Ast.Hdr h -> fun f -> Packet.get_field f.pkt h
    | Ast.Payload_byte off ->
      let off = ex off in
      fun f -> Packet.get_payload_byte f.pkt (off f)
    | Ast.Packet_len -> fun f -> Packet.length f.pkt
    | Ast.Bin (op, a, b) -> (
      let a = ex a and b = ex b in
      match op with
      | Ast.Add -> fun f -> let x = a f and y = b f in (x + y) land 0xffffffff
      | Ast.Sub -> fun f -> let x = a f and y = b f in (x - y) land 0xffffffff
      | Ast.Mul -> fun f -> let x = a f and y = b f in x * y land 0xffffffff
      | Ast.BAnd -> fun f -> let x = a f and y = b f in x land y
      | Ast.BOr -> fun f -> let x = a f and y = b f in x lor y
      | Ast.BXor -> fun f -> let x = a f and y = b f in x lxor y
      | Ast.Shl -> fun f -> let x = a f and y = b f in x lsl (y land 31) land 0xffffffff
      | Ast.Shr -> fun f -> let x = a f and y = b f in (x land 0xffffffff) lsr (y land 31))
    | Ast.Cmp (op, a, b) -> (
      let a = ex a and b = ex b in
      let cmp r = if r then 1 else 0 in
      match op with
      | Ast.Eq -> fun f -> let x = a f and y = b f in cmp (x = y)
      | Ast.Ne -> fun f -> let x = a f and y = b f in cmp (x <> y)
      | Ast.Lt -> fun f -> let x = a f and y = b f in cmp (x < y)
      | Ast.Le -> fun f -> let x = a f and y = b f in cmp (x <= y)
      | Ast.Gt -> fun f -> let x = a f and y = b f in cmp (x > y)
      | Ast.Ge -> fun f -> let x = a f and y = b f in cmp (x >= y))
    | Ast.Not a ->
      let a = ex a in
      fun f -> if truth (a f) then 0 else 1
    | Ast.And_also (a, b) ->
      let a = ex a and b = ex b in
      fun f -> if truth (a f) then b f else 0
    | Ast.Or_else (a, b) ->
      let a = ex a and b = ex b in
      fun f -> if truth (a f) then 1 else b f
    | Ast.Arr_get (name, idx) ->
      let r = intern reads (name, sid) and c = cell arrays name and idx = ex idx in
      fun f ->
        bump reads r;
        let arr = array st c in
        let j = idx f in
        if j >= 0 && j < Array.length arr then arr.(j) else 0
    | Ast.Vec_len name ->
      let r = intern reads (name, sid) and c = cell vectors name in
      fun _ ->
        bump reads r;
        State.vec_length (vec st c)
    | Ast.Api_expr (name, args) ->
      let a = intern apis name and args = Array.of_list (List.map ex args) in
      let call = Api.expr_fn name (Array.length args) and buf = Array.make (Array.length args) 0 in
      fun f ->
        bump apis a;
        fill buf args f;
        call f.time f.pkt buf
  in
  (* the first definition of a name wins, as in a lookup by name *)
  let subs =
    List.fold_left
      (fun acc (name, body) -> if List.mem_assoc name acc then acc else (name, (ref ignore, body)) :: acc)
      [] elt.Ast.subs
  in
  let rec stmt (s : Ast.stmt) : frame -> unit =
    let sid = s.Ast.sid in
    let ex = expr sid in
    let read name = intern reads (name, sid) and write name = intern writes (name, sid) in
    let map_api m api = (intern apis api, cell maps m) and vec_api name api = (intern apis api, cell vectors name) in
    let evals es = Array.of_list (List.map ex es) in
    match s.Ast.node with
    | Ast.Let (v, e) ->
      let s = intern locals v and e = ex e in
      fun f -> f.locals.(s) <- e f
    | Ast.Set_global (v, Ast.Bin (Ast.Add, Ast.Global v', Ast.Int k)) when String.equal v v' ->
      (* the counter bump: the write is counted before the read, as the
         general case evaluates it *)
      let w = write v and c = cell scalars v in
      let r = intern reads (v, sid) in
      fun _ ->
        bump writes w;
        bump reads r;
        let cnt = scalar st c in
        cnt := (!cnt + k) land 0xffffffff
    | Ast.Set_global (v, e) ->
      let w = write v and c = cell scalars v and e = ex e in
      fun f ->
        bump writes w;
        scalar st c := e f
    | Ast.Set_hdr (h, e) ->
      let e = ex e in
      fun f -> Packet.set_field f.pkt h (e f)
    | Ast.Set_payload (off, v) ->
      let off = ex off and v = ex v in
      fun f -> Packet.set_payload_byte f.pkt (off f) (v f)
    | Ast.Arr_set (name, idx, v) ->
      let w = write name and c = cell arrays name and idx = ex idx and v = ex v in
      fun f ->
        bump writes w;
        let arr = array st c in
        let j = idx f in
        if j >= 0 && j < Array.length arr then arr.(j) <- v f
    | Ast.Map_find (m, key, dst) when List.for_all is_hdr key ->
      (* the match-action lookup: header fields read straight into the key *)
      let r = read m and a, c = map_api m "map_find" and ops = intern map_ops m in
      let fields = Array.of_list (List.map hdr_field key) and d = intern locals dst in
      let buf = Array.make (Array.length fields) 0 in
      fun f ->
        bump reads r;
        bump apis a;
        let m = map st c in
        for k = 0 to Array.length fields - 1 do
          buf.(k) <- Packet.get_field f.pkt fields.(k)
        done;
        let outcome = State.lookup m buf in
        record ops (State.lookup_probes outcome);
        f.locals.(d) <- (if State.lookup_found outcome then 1 else 0)
    | Ast.Map_find (m, key, dst) ->
      let r = read m and a, c = map_api m "map_find" and ops = intern map_ops m in
      let key = evals key and d = intern locals dst in
      (* a lookup keeps no reference to its key: one buffer per statement *)
      let buf = Array.make (Array.length key) 0 in
      fun f ->
        bump reads r;
        bump apis a;
        let m = map st c in
        fill buf key f;
        let outcome = State.lookup m buf in
        record ops (State.lookup_probes outcome);
        f.locals.(d) <- (if State.lookup_found outcome then 1 else 0)
    | Ast.Map_read (m, field, dst) ->
      let r = read m and a, c = map_api m "map_read" and d = intern locals dst in
      fun f ->
        bump reads r;
        bump apis a;
        f.locals.(d) <- State.read (map st c) field
    | Ast.Map_write (m, field, e) ->
      let w = write m and a, c = map_api m "map_write" and e = ex e in
      fun f ->
        bump writes w;
        bump apis a;
        State.write (map st c) field (e f)
    | Ast.Map_insert (m, key, vals) ->
      let w = write m and a, c = map_api m "map_insert" and ops = intern map_ops m in
      let key = evals key and vals = evals vals in
      (* the map copies what it keeps: one buffer each per statement *)
      let kbuf = Array.make (Array.length key) 0 and vbuf = Array.make (Array.length vals) 0 in
      fun f ->
        bump writes w;
        bump apis a;
        let m = map st c in
        (* the values first, as the insert's arguments were evaluated *)
        fill vbuf vals f;
        fill kbuf key f;
        record ops (State.insert m kbuf vbuf)
    | Ast.Map_erase m ->
      let w = write m and a, c = map_api m "map_erase" in
      fun _ ->
        bump writes w;
        bump apis a;
        State.erase (map st c)
    | Ast.Vec_append (name, e) ->
      let w = write name and a, c = vec_api name "vec_append" and e = ex e in
      fun f ->
        bump writes w;
        bump apis a;
        State.vec_append (vec st c) (e f)
    | Ast.Vec_get (name, idx, dst) ->
      let r = read name and a, c = vec_api name "vec_get" and idx = ex idx in
      let d = intern locals dst in
      fun f ->
        bump reads r;
        bump apis a;
        f.locals.(d) <- State.vec_get (vec st c) (idx f)
    | Ast.Vec_set (name, idx, e) ->
      let w = write name and a, c = vec_api name "vec_set" and idx = ex idx and e = ex e in
      fun f ->
        bump writes w;
        bump apis a;
        State.vec_set (vec st c) (idx f) (e f)
    | Ast.If (Ast.Cmp (op, Ast.Local v, Ast.Int n), th, el) -> (
      (* the action dispatch and hit test: a local against a constant *)
      let s = intern locals v and th = block th and el = block el in
      match op with
      | Ast.Eq -> fun f -> if f.locals.(s) = n then th f else el f
      | Ast.Ne -> fun f -> if f.locals.(s) <> n then th f else el f
      | Ast.Lt -> fun f -> if f.locals.(s) < n then th f else el f
      | Ast.Le -> fun f -> if f.locals.(s) <= n then th f else el f
      | Ast.Gt -> fun f -> if f.locals.(s) > n then th f else el f
      | Ast.Ge -> fun f -> if f.locals.(s) >= n then th f else el f)
    | Ast.If (c, th, el) ->
      let c = ex c and th = block th and el = block el in
      fun f -> (if truth (c f) then th else el) f
    | Ast.While (c, body) ->
      let at = intern conds sid and c = ex c and body = block body in
      fun f ->
        let fuel = ref loop_fuel in
        while
          bump conds at;
          truth (c f)
        do
          decr fuel;
          if !fuel <= 0 then raise (Fuel_exhausted elt.Ast.name);
          body f
        done
    | Ast.For (v, lo, hi, body) ->
      let at = intern conds sid and s = intern locals v in
      let lo = ex lo and hi = ex hi and body = block body in
      fun f ->
        let lo_v = lo f and hi_v = hi f in
        let fuel = ref loop_fuel in
        let i = ref lo_v in
        while
          bump conds at;
          !i < hi_v
        do
          decr fuel;
          if !fuel <= 0 then raise (Fuel_exhausted elt.Ast.name);
          f.locals.(s) <- !i;
          body f;
          (* the body may rebind the loop variable; the increment reads it
             back, matching C semantics *)
          i := 1 + f.locals.(s)
        done
    | Ast.Api_stmt (name, args) ->
      let a = intern apis name and args = evals args in
      let call = Api.stmt_fn name (Array.length args) and buf = Array.make (Array.length args) 0 in
      fun f ->
        bump apis a;
        fill buf args f;
        call f.pkt buf
    | Ast.Emit port ->
      let a = intern apis "send" in
      fun f ->
        bump apis a;
        f.locals.(action) <- 1000 + port;
        raise_notrace Handler_return
    | Ast.Drop ->
      let a = intern apis "kill" in
      fun f ->
        bump apis a;
        f.locals.(action) <- -1;
        raise_notrace Handler_return
    | Ast.Call_sub name -> (
      match List.assoc_opt name subs with
      | Some (body, _) -> fun f -> !body f
      | None ->
        fun _ -> failwith (Printf.sprintf "Interp: %s: unknown subroutine %s" elt.Ast.name name))
    | Ast.Return -> fun _ -> raise_notrace Handler_return
  and block body =
    let ats = Array.of_list (List.map (fun (s : Ast.stmt) -> intern stmts s.Ast.sid) body) in
    let run = Array.of_list (List.map stmt body) in
    (* the branches of a table's hit test and action dispatch hold one
       or two statements: those run without the loop *)
    match (ats, run) with
    | [||], _ -> fun _ -> ()
    | [| a |], [| r |] ->
      fun f ->
        bump stmts a;
        r f
    | [| a; b |], [| r; q |] ->
      fun f ->
        bump stmts a;
        r f;
        bump stmts b;
        q f
    | _ ->
      fun f ->
        for k = 0 to Array.length run - 1 do
          bump stmts ats.(k);
          run.(k) f
        done
  in
  let handler = block elt.Ast.handler in
  List.iter (fun (_, (run, body)) -> run := block body) subs;
  List.iter seal [ stmts; conds ];
  List.iter seal [ reads; writes ];
  List.iter seal [ apis; map_ops ];
  probes := Array.make (Array.length map_ops.keys) 0;
  {
    handler;
    frame = { locals = Array.make (Hashtbl.length locals.index) 0; pkt = Packet.create (); time = 0 };
    action;
    stmts;
    conds;
    reads;
    writes;
    apis;
    map_ops;
    probes = !probes;
  }

type t = {
  elt : Ast.element;
  state : State.t;
  profile : profile;
  mutable time : int;  (** virtual clock: packet sequence number *)
  prog : prog;
}

let create ?(mode = State.Host) elt =
  let state = State.create ~mode elt.Ast.state in
  { elt; state; profile = new_profile (); time = 0; prog = compile elt state }

(* One packet, counted but not flushed; the verdict stays in its slot. *)
let step t pkt =
  let p = t.prog and f = t.prog.frame in
  (* a loop, not [Array.fill]: the frame is a few slots, and the C call
     cost more than clearing them *)
  for i = 0 to Array.length f.locals - 1 do
    f.locals.(i) <- 0
  done;
  t.profile.packets <- t.profile.packets + 1;
  t.time <- t.time + 1;
  (* [run_copies] hands over the same scratch packet every time: skip
     the write barrier then *)
  if f.pkt != pkt then f.pkt <- pkt;
  f.time <- t.time;
  (try p.handler f with Handler_return -> ());
  if f.locals.(p.action) >= 1000 then t.profile.emitted <- t.profile.emitted + 1
  else t.profile.dropped <- t.profile.dropped + 1

let flush t =
  let p = t.prog and prof = t.profile in
  flush_counts p.stmts prof.stmt_counts;
  flush_counts p.conds prof.cond_counts;
  flush_counts p.reads prof.global_reads;
  flush_counts p.writes prof.global_writes;
  flush_counts p.apis prof.api_counts;
  let c = p.map_ops in
  for k = 0 to c.touched - 1 do
    let i = c.order.(k) in
    (match Hashtbl.find_opt prof.map_ops c.keys.(i) with
    | Some (ops, probes) ->
      ops := !ops + c.counts.(i);
      probes := !probes + p.probes.(i)
    | None -> Hashtbl.replace prof.map_ops c.keys.(i) (ref c.counts.(i), ref p.probes.(i)));
    c.counts.(i) <- 0;
    p.probes.(i) <- 0
  done;
  c.touched <- 0

let flushed t f =
  match f () with
  | v ->
    flush t;
    v
  | exception e ->
    flush t;
    raise e

(** Process one packet; returns the verdict. *)
let push t pkt =
  flushed t (fun () ->
      step t pkt;
      let a = t.prog.frame.locals.(t.prog.action) in
      if a >= 1000 then Emitted (a - 1000) else Dropped)

(* Packets between the yield points of [run]: a cold analysis on the
   serving loop suspends here so hits are answered between its slices. *)
let yield_every = 32

(* Each packet of [pkts], as [packet] hands it over, in order. *)
let steps t pkts ~packet =
  flushed t (fun () ->
      let rec go n = function
        | [] -> ()
        | pkt :: rest ->
          step t (packet pkt);
          if n = yield_every then begin
            Util.Coop.yield ();
            go 1 rest
          end
          else go (n + 1) rest
      in
      go 1 pkts);
  t.profile

(** Process a whole packet list, returning the profile. *)
let run t pkts = steps t pkts ~packet:Fun.id

(** {!run} over copies of [template]'s packets, made one at a time in one
    scratch packet: [template] itself is never mutated. *)
let run_copies t template =
  let scratch = Packet.create () in
  steps t template ~packet:(fun pkt ->
      Packet.assign scratch pkt;
      scratch)
