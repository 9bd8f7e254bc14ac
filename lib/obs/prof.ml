(** Sampling continuous profiler over the span stack (see prof.mli). *)

(* -- enablement --

   Same discipline as [Span.enabled_flag]: every hot-path hook is guarded
   by one atomic load, so instrumented code pays a single [Atomic.get]
   while the profiler is off.  The flag flips only inside [start]/[stop]
   under [ticker_lock]. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let env_hz () =
  match Sys.getenv_opt "CLARA_PROF_HZ" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with Some h when h > 0.0 -> Some h | _ -> None)
  | None -> None

(* -- per-domain published stacks --

   [Domain.DLS] is readable only from its own domain, so the ticker cannot
   walk [Span]'s DLS parent stacks directly.  Instead each domain that
   opens a span while the profiler is on publishes its current span-name
   stack — an immutable list, innermost first — into a shared cell the
   ticker reads with one [Atomic.get].  The cell is single-writer (only
   its owning domain swaps the list), so the ticker always observes a
   consistent snapshot.  Cells register once per domain under [reg_lock]
   and stay registered after the domain dies (their stacks are empty by
   then: spans close before a domain exits). *)

type frame = { f_name : string; f_alloc0 : float; mutable f_child_w : float }

type cell = {
  mutable c_frames : frame list; (* owner-domain only: alloc bookkeeping *)
  c_names : string list Atomic.t; (* published for the ticker *)
}

let reg_lock = Mutex.create ()
let cells : cell list ref = ref []

let cell_key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = { c_frames = []; c_names = Atomic.make [] } in
      Mutex.lock reg_lock;
      cells := c :: !cells;
      Mutex.unlock reg_lock;
      c)

(* -- folded-stack tables --

   Keys are semicolon-joined root-first paths ("serve.batch;analyze"),
   the collapsed format flamegraph.pl and speedscope read.  [samples]
   counts ticker observations of the exact stack; [alloc_w] accumulates
   minor-heap words attributed to the path's self time. *)

type bucket = { mutable samples : int; mutable alloc_w : float }

let tbl_lock = Mutex.create ()
let buckets : (string, bucket) Hashtbl.t = Hashtbl.create 64
let ticks = Atomic.make 0
let samples_total = Atomic.make 0

let bucket_of path =
  match Hashtbl.find_opt buckets path with
  | Some b -> b
  | None ->
    let b = { samples = 0; alloc_w = 0.0 } in
    Hashtbl.add buckets path b;
    b

(* innermost-first name list -> root-first collapsed key *)
let fold_path names = String.concat ";" (List.rev names)

let add_alloc names w =
  if w > 0.0 && names <> [] then begin
    Mutex.lock tbl_lock;
    let b = bucket_of (fold_path names) in
    b.alloc_w <- b.alloc_w +. w;
    Mutex.unlock tbl_lock
  end

(* -- allocation attribution --

   OCaml 5.1's multicore runtime does not implement [Gc.Memprof]
   ([Gc.Memprof.start] raises [Failure "not implemented in multicore"]),
   so [start] attempts the sampled tracker once and, when the runtime
   refuses, falls back to exact per-span minor-word deltas: each frame
   notes [Gc.minor_words] at entry, children report their totals to the
   parent, and the difference — the frame's self-allocation — is binned
   at pop to the full stack path.  [memprof_active] reports which source
   is feeding [alloc_w] so readers know sampled words from exact ones. *)

let memprof_on = Atomic.make false
let memprof_active () = Atomic.get memprof_on

let try_start_memprof () =
  match
    Gc.Memprof.start ~sampling_rate:1e-4 ~callstack_size:0
      { Gc.Memprof.null_tracker with
        alloc_minor =
          (fun (a : Gc.Memprof.allocation) ->
            let c = Domain.DLS.get cell_key in
            add_alloc (Atomic.get c.c_names) (float_of_int a.size);
            None)
      }
  with
  | _t -> Atomic.set memprof_on true
  | exception _ -> Atomic.set memprof_on false

let stop_memprof () =
  if Atomic.get memprof_on then begin
    (try Gc.Memprof.stop () with _ -> ());
    Atomic.set memprof_on false
  end

(* -- span hooks (called from Span.with_ when [enabled]) -- *)

let enter name =
  let c = Domain.DLS.get cell_key in
  c.c_frames <- { f_name = name; f_alloc0 = Gc.minor_words (); f_child_w = 0.0 } :: c.c_frames;
  Atomic.set c.c_names (name :: Atomic.get c.c_names);
  true

let exit_ () =
  let c = Domain.DLS.get cell_key in
  match c.c_frames with
  | [] -> ()
  | f :: rest ->
    let names = Atomic.get c.c_names in
    let total = Gc.minor_words () -. f.f_alloc0 in
    (match rest with parent :: _ -> parent.f_child_w <- parent.f_child_w +. total | [] -> ());
    c.c_frames <- rest;
    (match names with _ :: ns -> Atomic.set c.c_names ns | [] -> ());
    if not (Atomic.get memprof_on) then
      add_alloc names (Float.max 0.0 (total -. f.f_child_w))

(* A cooperative job suspended mid-span keeps its own frames: the
   caller saves this domain's stack before resuming it and puts it back
   after, so the ticker never samples the job under the caller's spans
   nor the caller under the job's. *)
type saved = frame list * string list

let save () =
  let c = Domain.DLS.get cell_key in
  (c.c_frames, Atomic.get c.c_names)

let restore (frames, names) =
  let c = Domain.DLS.get cell_key in
  c.c_frames <- frames;
  Atomic.set c.c_names names

(* -- the ticker domain -- *)

let ticker_lock = Mutex.create ()
let ticker : unit Domain.t option ref = ref None
let current_hz = ref 0.0
let stop_flag = Atomic.make false

let hz () =
  Mutex.lock ticker_lock;
  let h = !current_hz in
  Mutex.unlock ticker_lock;
  h

let tick () =
  Atomic.incr ticks;
  Mutex.lock reg_lock;
  let cs = !cells in
  Mutex.unlock reg_lock;
  List.iter
    (fun c ->
      match Atomic.get c.c_names with
      | [] -> ()
      | names ->
        Atomic.incr samples_total;
        Mutex.lock tbl_lock;
        let b = bucket_of (fold_path names) in
        b.samples <- b.samples + 1;
        Mutex.unlock tbl_lock)
    cs

let running () = Atomic.get enabled_flag

let start ?hz () =
  let hz =
    match hz with
    | Some h -> h
    | None -> ( match env_hz () with Some h -> h | None -> 99.0)
  in
  if hz <= 0.0 then invalid_arg "Prof.start: hz must be positive";
  Mutex.lock ticker_lock;
  if !ticker <> None then Mutex.unlock ticker_lock
  else begin
    current_hz := hz;
    Atomic.set stop_flag false;
    try_start_memprof ();
    Atomic.set enabled_flag true;
    let d =
      Domain.spawn (fun () ->
          let period = 1.0 /. hz in
          while not (Atomic.get stop_flag) do
            (try Unix.sleepf period with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            if not (Atomic.get stop_flag) then tick ()
          done)
    in
    ticker := Some d;
    Mutex.unlock ticker_lock
  end

let stop () =
  Mutex.lock ticker_lock;
  let d = !ticker in
  ticker := None;
  current_hz := 0.0;
  Mutex.unlock ticker_lock;
  match d with
  | None -> ()
  | Some d ->
    Atomic.set enabled_flag false;
    stop_memprof ();
    Atomic.set stop_flag true;
    Domain.join d

let reset () =
  Mutex.lock tbl_lock;
  Hashtbl.reset buckets;
  Mutex.unlock tbl_lock;
  Atomic.set ticks 0;
  Atomic.set samples_total 0

(* -- export -- *)

type stack = { path : string; samples : int; alloc_w : float }

let stacks () =
  Mutex.lock tbl_lock;
  let out =
    Hashtbl.fold
      (fun path (b : bucket) acc -> { path; samples = b.samples; alloc_w = b.alloc_w } :: acc)
      buckets []
  in
  Mutex.unlock tbl_lock;
  (* hottest first; path breaks ties so the order is reproducible *)
  List.sort
    (fun a b ->
      match compare b.samples a.samples with
      | 0 -> ( match compare b.alloc_w a.alloc_w with 0 -> compare a.path b.path | c -> c)
      | c -> c)
    out

let folded () =
  let b = Buffer.create 256 in
  List.iter
    (fun s -> if s.samples > 0 then Printf.bprintf b "%s %d\n" s.path s.samples)
    (stacks ());
  Buffer.contents b

let folded_alloc () =
  let b = Buffer.create 256 in
  List.iter
    (fun s -> if s.alloc_w > 0.0 then Printf.bprintf b "%s %.0f\n" s.path s.alloc_w)
    (stacks ());
  Buffer.contents b

let to_json_string () =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"enabled\":%b,\"hz\":%g,\"memprof\":%b,\"ticks\":%d,\"samples\":%d,\"stacks\":["
    (enabled ()) (hz ()) (memprof_active ()) (Atomic.get ticks) (Atomic.get samples_total);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"stack\":\"%a\",\"samples\":%d,\"alloc_w\":%.0f}" Json.add_escaped s.path
        s.samples s.alloc_w)
    (stacks ());
  Buffer.add_string b "]}";
  Buffer.contents b
