(** Consistent-hash ring (see chash.mli). *)

(* FNV-1a/64: tiny, and easy to reimplement independently — the test
   suite's pin test does exactly that. *)
let fnv64 = Util.Fnv.fnv1a64

(* splitmix64 finalizer, as in [Serve.Client] / [Obs.Fault]. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Ring positions are finalizer-mixed: raw FNV-1a of short, similar
   strings ("w0#17", "key-42") clusters in the high bits that decide
   ring order, badly enough that a 5-member/32-vnode ring can leave a
   member with no keyspace at all.  The splitmix64 finalizer restores
   the avalanche while keeping positions a pure function of the bytes. *)
let position s = mix64 (fnv64 s)

type t = {
  points : (int64 * string) array;  (* vnode points, sorted unsigned *)
  members : string list;
  vnodes : int;
}

let create ?(vnodes = 64) names =
  if vnodes < 1 then invalid_arg "Chash.create: vnodes must be >= 1";
  let members = List.sort_uniq String.compare names in
  let points =
    List.concat_map
      (fun name -> List.init vnodes (fun i -> (position (Printf.sprintf "%s#%d" name i), name)))
      members
    |> Array.of_list
  in
  Array.sort
    (fun (a, an) (b, bn) ->
      match Int64.unsigned_compare a b with 0 -> String.compare an bn | c -> c)
    points;
  { points; members; vnodes }

let members t = t.members

(* First vnode clockwise from the key's hash (wrapping), so removing a
   member only remaps keys that pointed at its vnodes — ~1/n of them. *)
let lookup t key =
  let n = Array.length t.points in
  if n = 0 then None
  else begin
    let h = position key in
    let lo = ref 0 and hi = ref n in
    (* least index whose point is >= h, unsigned *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1 else hi := mid
    done;
    Some (snd t.points.(if !lo = n then 0 else !lo))
  end

let canary_draw ~seed key =
  let bits =
    mix64 (Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) (fnv64 key))
  in
  Int64.to_float (Int64.shift_right_logical bits 11) *. (1.0 /. 9007199254740992.0)
