(** Deterministic replay of flight-recorder dumps (see replay.mli). *)

type header = { h_trigger : string; h_pid : int; h_declared : int }

type divergence = { d_seq : int; d_request : string; d_expected : string; d_got : string }

type result = {
  total : int;
  compared : int;
  matched : int;
  diverged : divergence list;
  skipped_env : int;
  skipped_volatile : int;
  skipped_truncated : int;
}

(* -- dump parsing -- *)

let record_of_json j : (Obs.Flight.record, string) Stdlib.result =
  let str k = Option.value (Jsonl.str_member k j) ~default:"" in
  let num k = Option.value (Jsonl.num_member k j) ~default:0.0 in
  match (Jsonl.str_member "request" j, Jsonl.str_member "reply" j) with
  | Some request, Some reply ->
    Ok
      { Obs.Flight.seq = int_of_float (num "seq"); ts_s = num "ts"; trace = str "trace";
        path = str "path"; latency_us = num "latency_us"; outcome = str "outcome"; request; reply;
        truncated = (match Jsonl.member "truncated" j with Some (Jsonl.Bool b) -> b | _ -> false) }
  | _ -> Error "record line missing \"request\"/\"reply\""

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             let l = String.trim (input_line ic) in
             if l <> "" then lines := l :: !lines
           done
         with End_of_file -> ());
        match List.rev !lines with
        | [] -> Error "empty dump file"
        | header_line :: record_lines -> (
          match Jsonl.of_string header_line with
          | Error msg -> Error ("unparseable dump header: " ^ msg)
          | Ok hj -> (
            match Jsonl.str_member "schema" hj with
            | Some "clara-flight-dump/1" -> (
              let header =
                { h_trigger = Option.value (Jsonl.str_member "trigger" hj) ~default:"";
                  h_pid =
                    int_of_float (Option.value (Jsonl.num_member "pid" hj) ~default:0.0);
                  h_declared =
                    int_of_float (Option.value (Jsonl.num_member "records" hj) ~default:0.0)
                }
              in
              let rec parse acc i = function
                | [] -> Ok (header, List.rev acc)
                | l :: rest -> (
                  match Jsonl.of_string l with
                  | Error msg -> Error (Printf.sprintf "record %d: %s" i msg)
                  | Ok j -> (
                    match record_of_json j with
                    | Ok r -> parse (r :: acc) (i + 1) rest
                    | Error msg -> Error (Printf.sprintf "record %d: %s" i msg)))
              in
              parse [] 1 record_lines)
            | Some other -> Error (Printf.sprintf "unknown dump schema %S" other)
            | None -> Error "dump header has no \"schema\"")))

(* -- reply normalization --

   The volatile spans are exactly the splice points [Fastpath.Entry]
   parameterizes (id, trace, cached, path): a replayed miss may answer a
   recorded fast hit, and trace counters restart per process, so those
   fields are masked to ["*"] on both sides before the byte-diff.
   Everything else — field order, escaping, report bytes — must match. *)

let find_sub pat s =
  let n = String.length s and m = String.length pat in
  let rec go i = if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1) in
  go 0

(* ["key":"value"] with an escape-aware scan for the closing quote *)
let mask_str_value key s =
  let pat = "\"" ^ key ^ "\":\"" in
  match find_sub pat s with
  | None -> s
  | Some i ->
    let vstart = i + String.length pat in
    let n = String.length s in
    let rec backslashes k = if k >= 0 && s.[k] = '\\' then backslashes (k - 1) else k in
    let rec fin j =
      if j >= n then n
      else if s.[j] = '"' && (j - 1 - backslashes (j - 1)) mod 2 = 0 then j
      else fin (j + 1)
    in
    let vend = fin vstart in
    String.sub s 0 vstart ^ "*" ^ String.sub s (min vend n) (n - min vend n)

(* ["key":token] up to the next [,]/[}] (booleans) *)
let mask_token_value key s =
  let pat = "\"" ^ key ^ "\":" in
  match find_sub pat s with
  | None -> s
  | Some i ->
    let vstart = i + String.length pat in
    let n = String.length s in
    let rec fin j = if j >= n || s.[j] = ',' || s.[j] = '}' then j else fin (j + 1) in
    let vend = fin vstart in
    String.sub s 0 vstart ^ "*" ^ String.sub s vend (n - vend)

(* [{"id":X,] prefix: every reply renders the id first *)
let mask_id s =
  let pfx = "{\"id\":" in
  let np = String.length pfx in
  if String.length s < np || String.sub s 0 np <> pfx then s
  else
    match find_sub ",\"ok\":" s with
    | None -> s
    | Some i -> pfx ^ "*" ^ String.sub s i (String.length s - i)

let normalize reply =
  mask_token_value "cached"
    (mask_str_value "path" (mask_str_value "trace_id" (mask_id reply)))

(* -- request classification --

   Stateful commands answer from live counters (stats, metrics, quality,
   trace, flight, profile, health — the last also names the pid) or
   mutate the server (shutdown): their replies are legitimately different
   on replay and are skipped, not diffed. *)

let volatile_cmds =
  [ "stats"; "metrics"; "quality"; "trace"; "flight"; "profile"; "health"; "shutdown" ]

let volatile_request line =
  match Jsonl.of_string line with
  | Error _ -> false (* malformed lines get deterministic error replies *)
  | Ok req -> (
    match (Proto.decode req).cmd with Some c -> List.mem c volatile_cmds | None -> false)

let environmental_outcome = function
  | "overloaded" | "deadline" | "fault" -> true
  | _ -> false

(* -- replay -- *)

let server_for ?(cache_capacity = 64) models =
  (* No deadline, no shedding surprises, no shadow sampling, no nested
     recording: the replay server must answer every replayable line
     deterministically from the bundle alone. *)
  Server.create ~cache_capacity ~slow_threshold_s:infinity ~deadline_ms:0.0
    ~max_pending:4096 ~shadow_rate:0.0 ~flight_capacity:0 models

let replay ~server records =
  let records =
    List.sort (fun (a : Obs.Flight.record) b -> compare a.Obs.Flight.seq b.Obs.Flight.seq) records
  in
  List.fold_left
    (fun acc (r : Obs.Flight.record) ->
      let acc = { acc with total = acc.total + 1 } in
      if r.Obs.Flight.truncated then { acc with skipped_truncated = acc.skipped_truncated + 1 }
      else if environmental_outcome r.Obs.Flight.outcome then
        { acc with skipped_env = acc.skipped_env + 1 }
      else if volatile_request r.Obs.Flight.request then
        { acc with skipped_volatile = acc.skipped_volatile + 1 }
      else begin
        let got = Server.handle_request server r.Obs.Flight.request in
        let acc = { acc with compared = acc.compared + 1 } in
        if normalize got = normalize r.Obs.Flight.reply then
          { acc with matched = acc.matched + 1 }
        else
          { acc with
            diverged =
              acc.diverged
              @ [ { d_seq = r.Obs.Flight.seq; d_request = r.Obs.Flight.request;
                    d_expected = r.Obs.Flight.reply; d_got = got } ]
          }
      end)
    { total = 0; compared = 0; matched = 0; diverged = []; skipped_env = 0;
      skipped_volatile = 0; skipped_truncated = 0 }
    records

let to_json_string r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"total\":%d,\"compared\":%d,\"matched\":%d,\"diverged\":%d,\"skipped_env\":%d,\"skipped_volatile\":%d,\"skipped_truncated\":%d,\"divergences\":["
    r.total r.compared r.matched (List.length r.diverged) r.skipped_env r.skipped_volatile
    r.skipped_truncated;
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"seq\":%d,\"request\":\"%a\",\"expected\":\"%a\",\"got\":\"%a\"}"
        d.d_seq Obs.Json.add_escaped d.d_request Obs.Json.add_escaped d.d_expected
        Obs.Json.add_escaped d.d_got)
    r.diverged;
  Buffer.add_string b "]}";
  Buffer.contents b
