(* Clocks, order statistics and /proc readers shared by every workload. *)

let now_ns () = Monotonic_clock.now ()
let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3
let us_since t0 = us_between t0 (now_ns ())
let s_since t0 = us_since t0 /. 1e6

(* Time one call in microseconds. *)
let time_us f =
  let t0 = now_ns () in
  let r = f () in
  (r, us_since t0)

(* Growable vector of float samples. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n
let to_array s = Array.sub s.a 0 s.n
let total s = Array.fold_left ( +. ) 0.0 (to_array s)

(* Nearest-rank quantile; [nan] on no samples. *)
let quantile_of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile s q =
  let b = to_array s in
  Array.sort Float.compare b;
  quantile_of_sorted b q

let p50 s = quantile s 0.5
let p99 s = quantile s 0.99

let median l =
  let s = samples () in
  List.iter (add s) l;
  p50 s

(* -- /proc -- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of [pid] in microseconds (Linux USER_HZ = 100). *)
let cpu_us pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields 14 and 15 of stat(5); [after] starts at field 3 *)
  (float_of_string f.(11) +. float_of_string f.(12)) *. 1e4

(* Peak resident set (VmHWM) of [pid] in MB. *)
let vmhwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
