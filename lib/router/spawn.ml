(** Worker-process lifecycle (see spawn.mli). *)

let sentinel = "--clara-worker"

type t = {
  sp_name : string;
  sp_socket : string;
  sp_pid : int;
  mutable sp_reaped : bool;
}

(* The worker child: a fresh exec of the harness executable.  No fork
   hazards — this process has its own runtime and pool. *)
let worker_main_if_requested () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = sentinel then begin
    let socket = ref "" and bundle = ref "" and quiet = ref false in
    let cache = ref None in
    let max_pending = ref None and max_clients = ref None in
    let i = ref 2 in
    let next () =
      incr i;
      Sys.argv.(!i - 1)
    in
    while !i < Array.length Sys.argv do
      (match next () with
      | "--socket" -> socket := next ()
      | "--bundle" -> bundle := next ()
      | "--quiet" -> quiet := true
      | "--cache" -> cache := Some (int_of_string (next ()))
      | "--max-pending" -> max_pending := Some (int_of_string (next ()))
      | "--max-clients" -> max_clients := Some (int_of_string (next ()))
      | arg ->
        prerr_endline ("worker: unknown argument " ^ arg);
        exit 2);
    done;
    if !quiet then Obs.Log.set_sink Obs.Log.Off;
    (match Persist.Bundle.load_salvage ~dir:!bundle with
    | Error e ->
      Printf.eprintf "worker: cannot load bundle %s: %s\n%!" !bundle
        (Persist.Wire.error_to_string e);
      exit 2
    | Ok (b, _dropped) ->
      let version = Persist.Bundle.version b.Persist.Bundle.manifest in
      let server =
        Serve.Server.create ?cache_capacity:!cache ?max_pending:!max_pending
          ?max_clients:!max_clients ~version b.Persist.Bundle.models
      in
      Serve.Server.run server ~socket_path:!socket;
      exit 0)
  end

let spawn ?(quiet = true) ?cache_capacity ?max_pending ?max_clients ~name
    ~socket_path ~bundle () =
  let opt flag = function
    | None -> []
    | Some n -> [ flag; string_of_int n ]
  in
  let argv =
    [ Sys.executable_name; sentinel; "--socket"; socket_path; "--bundle"; bundle ]
    @ (if quiet then [ "--quiet" ] else [])
    @ opt "--cache" cache_capacity
    @ opt "--max-pending" max_pending
    @ opt "--max-clients" max_clients
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
      Unix.stderr
  in
  { sp_name = name; sp_socket = socket_path; sp_pid = pid; sp_reaped = false }

let wait_ready ?(timeout_s = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let line = {|{"cmd":"ping","id":0}|} in
  let rec go () =
    match Upstream.oneshot ~socket_path:t.sp_socket ~timeout_s:1.0 line with
    | Ok _ -> true
    | Error _ ->
      if Unix.gettimeofday () >= deadline then false
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let signal t s = if not t.sp_reaped then try Unix.kill t.sp_pid s with Unix.Unix_error _ -> ()
let kill t = signal t Sys.sigkill
let terminate t = signal t Sys.sigterm

let reap t =
  t.sp_reaped
  || (match Unix.waitpid [ Unix.WNOHANG ] t.sp_pid with
     | 0, _ -> false
     | _ -> t.sp_reaped <- true; true
     | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
       t.sp_reaped <- true;
       true)

let wait t =
  if not t.sp_reaped then begin
    (match Unix.waitpid [] t.sp_pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
    t.sp_reaped <- true
  end

