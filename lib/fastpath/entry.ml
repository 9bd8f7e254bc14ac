(** Pre-rendered flow-entry replies (see entry.mli). *)

(* Escaping goes through [Obs.Json.add_escaped], the one [Serve.Jsonl]
   uses too, so fast-path and slow-path replies cannot disagree on a
   byte. *)

type t = {
  nf : string;
  mid : string;  (** pre-escaped [,"nf":...,"workload":...] segment *)
  report_json : string;  (** pre-escaped report, quotes included *)
  pred_compute : float;
  pred_memory : float;
}

let make ?(pred_compute = 0.0) ?(pred_memory = 0.0) ~nf ~workload ~report () =
  let b = Buffer.create (String.length nf + String.length workload + 32) in
  Buffer.add_string b ",\"nf\":\"";
  Obs.Json.add_escaped b nf;
  Buffer.add_string b "\",\"workload\":\"";
  Obs.Json.add_escaped b workload;
  Buffer.add_char b '"';
  let mid = Buffer.contents b in
  let rb = Buffer.create (String.length report + 16) in
  Buffer.add_char rb '"';
  Obs.Json.add_escaped rb report;
  Buffer.add_char rb '"';
  { nf; mid; report_json = Buffer.contents rb; pred_compute; pred_memory }

let nf t = t.nf
let pred_compute t = t.pred_compute
let pred_memory t = t.pred_memory

let render_tail b t ~cached ~path =
  Buffer.add_string b t.mid;
  Buffer.add_string b (if cached then ",\"cached\":true,\"path\":\"" else ",\"cached\":false,\"path\":\"");
  Buffer.add_string b path;
  Buffer.add_string b "\",\"report\":";
  Buffer.add_string b t.report_json;
  Buffer.add_char b '}'

let render_into b t ~id_src ~id_off ~id_len ~trace_src ~trace_off ~trace_len ~cached ~path =
  Buffer.add_string b "{\"id\":";
  if id_len = 0 then Buffer.add_string b "null"
  else Buffer.add_substring b id_src id_off id_len;
  Buffer.add_string b ",\"ok\":true,\"trace_id\":\"";
  Buffer.add_substring b trace_src trace_off trace_len;
  Buffer.add_char b '"';
  render_tail b t ~cached ~path

let render t ~id ~trace ~cached ~path =
  let b = Buffer.create (String.length t.report_json + String.length t.mid + 96) in
  Buffer.add_string b "{\"id\":";
  Buffer.add_string b (if id = "" then "null" else id);
  Buffer.add_string b ",\"ok\":true,\"trace_id\":\"";
  Obs.Json.add_escaped b trace;
  Buffer.add_char b '"';
  render_tail b t ~cached ~path;
  Buffer.contents b
