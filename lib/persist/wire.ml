(** Binary artifact framing: magic + version + component tag + CRC-32 over
    the payload.  See wire.mli for the layout.  All multi-byte integers are
    little-endian; floats travel as their IEEE-754 bit patterns, so values
    (including NaN payloads) round-trip bit-exactly. *)

type error =
  | Io_error of string
  | Truncated of { what : string; need : int; have : int }
  | Bad_magic of string
  | Bad_version of int
  | Wrong_component of { expected : string; got : string }
  | Crc_mismatch of { expected : int32; got : int32 }
  | Malformed of string

exception Error of error

let error_to_string = function
  | Io_error msg -> "I/O error: " ^ msg
  | Truncated { what; need; have } ->
    Printf.sprintf "truncated artifact: %s needs %d bytes, only %d present" what need have
  | Bad_magic got -> Printf.sprintf "bad magic %S (not a Clara artifact)" got
  | Bad_version v -> Printf.sprintf "unsupported artifact format version %d" v
  | Wrong_component { expected; got } ->
    Printf.sprintf "wrong component: expected %S, artifact holds %S" expected got
  | Crc_mismatch { expected; got } ->
    Printf.sprintf "payload checksum mismatch: stored %08lx, computed %08lx" expected got
  | Malformed msg -> "malformed payload: " ^ msg

(* -- CRC-32 (IEEE 802.3, reflected) -- *)

(* Computed on native ints (a CRC-32 fits in the low 32 bits of OCaml's
   63-bit int); [Int32] appears only at the boundary. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0l) s =
  let table = Lazy.force crc_table in
  let c = ref (Int32.to_int crc land 0xffffffff lxor 0xffffffff) in
  for i = 0 to String.length s - 1 do
    (* the index is masked to 0..255 and [i] is in range *)
    c :=
      (!c lsr 8)
      lxor Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
  done;
  Int32.of_int (!c lxor 0xffffffff)

(* -- writer -- *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents w = Buffer.contents w
let u8 w n = Buffer.add_char w (Char.chr (n land 0xff))
let i64 w n = Buffer.add_int64_le w (Int64.of_int n)
let f64 w x = Buffer.add_int64_le w (Int64.bits_of_float x)

let str w s =
  i64 w (String.length s);
  Buffer.add_string w s

let farr w a =
  i64 w (Array.length a);
  Array.iter (f64 w) a

let fmat w m =
  i64 w (Array.length m);
  Array.iter (farr w) m

let list_ w put l =
  i64 w (List.length l);
  List.iter (put w) l

(* -- reader -- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let need r n what =
  if r.pos + n > String.length r.data then
    raise (Error (Malformed (Printf.sprintf "%s overruns payload at offset %d" what r.pos)))

let r_u8 r =
  need r 1 "u8";
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_i64 r =
  need r 8 "i64";
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_f64 r =
  need r 8 "f64";
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_len r what =
  let n = r_i64 r in
  if n < 0 then raise (Error (Malformed (Printf.sprintf "negative %s length %d" what n)));
  n

let r_str r =
  let n = r_len r "string" in
  need r n "string body";
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* [Array.init]/[List.init] make no evaluation-order promise, so stateful
   reads fill explicitly, index order. *)
let r_farr r =
  let n = r_len r "float array" in
  need r (8 * n) "float array body";
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    a.(i) <- r_f64 r
  done;
  a

let r_fmat r =
  let n = r_len r "matrix" in
  let m = Array.make n [||] in
  for i = 0 to n - 1 do
    m.(i) <- r_farr r
  done;
  m

let r_list r get =
  let n = r_len r "list" in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (get r :: acc) in
  go n []

let r_end r =
  if r.pos <> String.length r.data then
    raise
      (Error
         (Malformed
            (Printf.sprintf "%d trailing payload bytes after decode" (String.length r.data - r.pos))))

(* -- framing -- *)

let magic = "CLARAOBJ"
let format_version = 1

let frame ~component payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (format_version land 0xff));
  Buffer.add_char b (Char.chr ((format_version lsr 8) land 0xff));
  if String.length component > 255 then invalid_arg "Wire.frame: component tag too long";
  Buffer.add_char b (Char.chr (String.length component));
  Buffer.add_string b component;
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  let crc = crc32 payload in
  Buffer.add_char b (Char.chr (Int32.to_int (Int32.logand crc 0xffl)));
  Buffer.add_char b (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc 8) 0xffl)));
  Buffer.add_char b (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc 16) 0xffl)));
  Buffer.add_char b (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc 24) 0xffl)));
  Buffer.add_string b payload;
  Buffer.contents b

let unframe ~component s =
  let have = String.length s in
  (* the [Error] exception above shadows [result]'s constructor *)
  let fail e = Result.Error e in
  if have < String.length magic then fail (Truncated { what = "magic"; need = String.length magic; have })
  else if String.sub s 0 (String.length magic) <> magic then
    fail (Bad_magic (String.sub s 0 (min have (String.length magic))))
  else if have < 10 then fail (Truncated { what = "format version"; need = 10; have })
  else begin
    let version = Char.code s.[8] lor (Char.code s.[9] lsl 8) in
    if version <> format_version then fail (Bad_version version)
    else if have < 11 then fail (Truncated { what = "component tag length"; need = 11; have })
    else begin
      let clen = Char.code s.[10] in
      if have < 11 + clen then fail (Truncated { what = "component tag"; need = 11 + clen; have })
      else begin
        let got = String.sub s 11 clen in
        if got <> component then fail (Wrong_component { expected = component; got })
        else begin
          let off = 11 + clen in
          if have < off + 12 then
            fail (Truncated { what = "payload length and checksum"; need = off + 12; have })
          else begin
            let plen = Int64.to_int (String.get_int64_le s off) in
            let stored_crc =
              Int32.logor
                (Int32.of_int
                   (Char.code s.[off + 8]
                   lor (Char.code s.[off + 9] lsl 8)
                   lor (Char.code s.[off + 10] lsl 16)))
                (Int32.shift_left (Int32.of_int (Char.code s.[off + 11])) 24)
            in
            if plen < 0 then fail (Malformed (Printf.sprintf "negative payload length %d" plen))
            else if have < off + 12 + plen then
              fail (Truncated { what = "payload"; need = off + 12 + plen; have })
            else if have > off + 12 + plen then
              fail (Malformed (Printf.sprintf "%d trailing bytes after payload" (have - off - 12 - plen)))
            else begin
              let payload = String.sub s (off + 12) plen in
              let crc = crc32 payload in
              if crc <> stored_crc then fail (Crc_mismatch { expected = stored_crc; got = crc })
              else Ok payload
            end
          end
        end
      end
    end
  end

(* -- files -- *)

let m_bytes_written =
  Obs.Metrics.counter ~help:"Artifact bytes written by Persist.Wire" "clara_persist_bytes_written_total"

let m_bytes_read =
  Obs.Metrics.counter ~help:"Artifact bytes read by Persist.Wire" "clara_persist_bytes_read_total"

(* Writes are atomic: the bytes land in a sibling temp file which is
   renamed over the target, so a writer killed mid-write leaves the old
   artifact untouched (readers see either the complete old file or the
   complete new one, never a torn mix).  An armed [persist.write] fault
   simulates exactly that crash: half the bytes reach the temp file, the
   rename never happens, and the writer dies with [Injected]. *)
let tmp_suffix = ".tmp"

let write_file path data =
  Obs.Metrics.add m_bytes_written (String.length data);
  let tmp = path ^ tmp_suffix in
  if Obs.Fault.fire "persist.write" then begin
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (String.sub data 0 (String.length data / 2)));
    raise (Obs.Fault.Injected "persist.write")
  end;
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data);
  Sys.rename tmp path

let read_file path =
  if Obs.Fault.fire "persist.read" then
    Result.Error (Io_error ("injected fault: persist.read of " ^ path))
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | data ->
      Obs.Metrics.add m_bytes_read (String.length data);
      Ok data
    | exception Sys_error msg -> Result.Error (Io_error msg)

let save ~component path payload = write_file path (frame ~component payload)

let load ~component path =
  match read_file path with Ok s -> unframe ~component s | Error _ as e -> e
