(** FNV-1a/64 (see fnv.mli). *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A loop over a local accumulator, not [String.iter] over a captured
   ref: the accumulator stays unboxed and the result is boxed once. *)
let fnv1a64 s =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h
