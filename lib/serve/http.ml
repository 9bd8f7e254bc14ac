(** Hand-rolled HTTP/1.1 telemetry endpoint (see http.mli). *)

type t = {
  listener : Unix.file_descr;
  h_port : int;
  stop_flag : bool Atomic.t;
  quality : (unit -> string) option;  (* renders the /quality document *)
  health : (unit -> string) option;  (* renders the /healthz document *)
  flight : (unit -> string) option;  (* renders the /flight.json document *)
  start_s : float;  (* creation time, for the default /healthz uptime *)
}

let m_requests path =
  Obs.Metrics.counter ~help:"HTTP telemetry requests" ~labels:[ ("path", path) ]
    "clara_http_requests_total"

(* Fixed label set so the exposition stays bounded whatever clients probe. *)
let m_healthz = m_requests "/healthz"
let m_metrics = m_requests "/metrics"
let m_trace = m_requests "/trace.json"
let m_quality = m_requests "/quality"
let m_flight = m_requests "/flight.json"
let m_profile = m_requests "/profile.folded"
let m_other = m_requests "other"

let create ?(backlog = 16) ?quality ?health ?flight ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let h_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { listener = fd; h_port; stop_flag = Atomic.make false; quality; health; flight;
    start_s = Unix.gettimeofday () }

let port t = t.h_port
let stop t = Atomic.set t.stop_flag true

(* -- request/response plumbing -- *)

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let text = "text/plain; charset=utf-8"

(* Prometheus text exposition format 0.0.4 (what scrapers negotiate for). *)
let prom = "text/plain; version=0.0.4; charset=utf-8"

let handle t ~meth ~path =
  match (meth, path) with
  | "GET", "/quality" -> (
    match t.quality with
    | Some render ->
      Obs.Metrics.inc m_quality;
      response ~status:"200 OK" ~content_type:"application/json" (render ())
    | None ->
      Obs.Metrics.inc m_other;
      response ~status:"404 Not Found" ~content_type:text "no quality source\n")
  | "GET", "/healthz" ->
    Obs.Metrics.inc m_healthz;
    let body =
      match t.health with
      | Some render -> render ()
      | None ->
        (* Allocation-light and lock-free: three scalars, one sprintf. *)
        Printf.sprintf "{\"ok\":true,\"uptime_s\":%.1f,\"pid\":%d}\n"
          (Unix.gettimeofday () -. t.start_s) (Unix.getpid ())
    in
    response ~status:"200 OK" ~content_type:"application/json" body
  | "GET", "/metrics" ->
    Obs.Metrics.inc m_metrics;
    Obs.Runtime.sample ();
    (* Snapshot under the registry locks, render the text outside them:
       instrument updates (and other scrapers) never wait on string
       formatting for a slow reader. *)
    let snap = Obs.Metrics.snapshot () in
    response ~status:"200 OK" ~content_type:prom (Obs.Metrics.render_snapshot snap)
  | "GET", "/trace.json" ->
    Obs.Metrics.inc m_trace;
    response ~status:"200 OK" ~content_type:"application/json" (Obs.Span.to_chrome_json ())
  | "GET", "/flight.json" -> (
    match t.flight with
    | Some render ->
      Obs.Metrics.inc m_flight;
      response ~status:"200 OK" ~content_type:"application/json" (render ())
    | None ->
      Obs.Metrics.inc m_other;
      response ~status:"404 Not Found" ~content_type:text "no flight recorder\n")
  | "GET", "/profile.folded" ->
    (* Collapsed flamegraph text straight from the global profiler: empty
       until [Obs.Prof.start] has sampled something, which is itself a
       useful signal. *)
    Obs.Metrics.inc m_profile;
    response ~status:"200 OK" ~content_type:text (Obs.Prof.folded ())
  | "GET", _ ->
    Obs.Metrics.inc m_other;
    response ~status:"404 Not Found" ~content_type:text "not found\n"
  | _ ->
    Obs.Metrics.inc m_other;
    response ~status:"405 Method Not Allowed" ~content_type:text "method not allowed\n"

(* Read until the blank line ending the request head; 8 KiB cap and a read
   timeout keep a stalled client from wedging the loop. *)
let read_head fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec loop () =
    if Buffer.length buf > 8192 then None
    else
      let has_terminator =
        let s = Buffer.contents buf in
        let rec scan i =
          if i + 3 >= String.length s then false
          else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
            true
          else scan (i + 1)
        in
        scan 0
      in
      if has_terminator then Some (Buffer.contents buf)
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
  in
  loop ()

let serve_connection t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  (* A reader that stops consuming must not wedge the accept loop. *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0;
  match read_head fd with
  | None -> ()
  | Some head ->
    let request_line =
      match String.index_opt head '\r' with
      | Some i -> String.sub head 0 i
      | None -> head
    in
    let reply =
      match String.split_on_char ' ' request_line with
      | meth :: target :: _ ->
        (* strip any query string; the endpoints take no parameters *)
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        Obs.Log.debug ~fields:[ ("method", Obs.Log.Str meth); ("path", Obs.Log.Str path) ] "http.request";
        handle t ~meth ~path
      | _ ->
        Obs.Metrics.inc m_other;
        response ~status:"400 Bad Request" ~content_type:text "bad request\n"
    in
    Lineio.write_all fd reply

let run t =
  Obs.Log.info ~fields:[ ("port", Obs.Log.Int t.h_port) ] "http.start";
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.listener ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.listener with
      | fd, _ ->
        (try serve_connection t fd
         with Unix.Unix_error (err, fn, _) ->
           Obs.Log.warn
             ~fields:[ ("error", Obs.Log.Str (Unix.error_message err)); ("fn", Obs.Log.Str fn) ]
             "http.client_error");
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (err, fn, _) ->
        Obs.Log.warn
          ~fields:[ ("error", Obs.Log.Str (Unix.error_message err)); ("fn", Obs.Log.Str fn) ]
          "http.accept_error")
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Obs.Log.info ~fields:[ ("port", Obs.Log.Int t.h_port) ] "http.stop"
