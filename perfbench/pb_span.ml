(* The benchmark's own spans: name, start, end, parent and request id,
   recorded from outside the program around each call into a layer.  Kept
   in memory while the run lasts and written out when it ends.  Recording
   is off unless the run is traced. *)

type span = { id : int; name : string; t0 : int64; t1 : int64; parent : int; req : int }

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0

let fresh () =
  incr next_id;
  !next_id

let record ?(parent = 0) ?(req = -1) ~id name t0 t1 =
  spans := { id; name; t0; t1; parent; req } :: !spans

(* Run [f] inside span [name]; [f] receives the span id so its own calls
   can name it as their parent. *)
let with_ ?parent ?req name f =
  if not !on then f 0
  else begin
    let id = fresh () in
    let t0 = Pb_stat.now_ns () in
    let r = f id in
    record ?parent ?req ~id name t0 (Pb_stat.now_ns ());
    r
  end

let dur_us s = Pb_stat.us_between s.t0 s.t1

(* Per span name: count, total and self time.  Self time is a span's
   duration minus what its children cover; children of one parent never
   overlap here (the benchmark is single-threaded around its spans). *)
let summary () =
  let child_us = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_us s.parent
          (dur_us s +. Option.value (Hashtbl.find_opt child_us s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = dur_us s -. Option.value (Hashtbl.find_opt child_us s.id) ~default:0.0 in
      let n, tot, slf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur_us s, slf +. self))
    !spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

let write ~path =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"req\":%d}\n"
        s.id s.name s.t0 s.t1 s.parent s.req)
    (List.rev !spans);
  close_out oc
