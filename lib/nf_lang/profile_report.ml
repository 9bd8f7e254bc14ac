(** Human-readable rendering of interpreter profiles.

    The workload profile is the raw material of Clara's workload-specific
    analyses (§4.2-4.5); this report makes it inspectable: per-packet
    verdicts, the hottest statements, per-structure access frequencies and
    hash-map probe behaviour. *)

open Ast

(** Top [n] most-executed statements as (sid, count). *)
let hot_statements ?(n = 10) (p : Interp.profile) =
  let all = Hashtbl.fold (fun sid c acc -> (sid, c) :: acc) p.Interp.stmt_counts [] in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) all in
  List.filteri (fun i _ -> i < n) sorted

(** Per-structure accesses per packet, sorted hottest-first. *)
let structure_frequencies (elt : element) (p : Interp.profile) =
  let pkts = float_of_int (max 1 p.Interp.packets) in
  elt.state
  |> List.map (fun d ->
         let name = state_name d in
         (name, float_of_int (Interp.global_accesses p name) /. pkts))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(** Find the source text of a statement id (first matching line of the
    pretty-printed element), for hot-statement attribution. *)
let statement_text (elt : element) sid =
  let found = ref None in
  let rec walk (s : stmt) =
    if s.sid = sid && !found = None then
      found := Some (Pp.stmt_text s |> fun t ->
                     if String.length t > 60 then String.sub t 0 57 ^ "..." else t);
    match s.node with
    | If (_, t, f) ->
      List.iter walk t;
      List.iter walk f
    | While (_, b) | For (_, _, _, b) -> List.iter walk b
    | Let _ | Set_global _ | Set_hdr _ | Set_payload _ | Arr_set _ | Map_find _ | Map_read _
    | Map_write _ | Map_insert _ | Map_erase _ | Vec_append _ | Vec_get _ | Vec_set _
    | Api_stmt _ | Emit _ | Drop | Call_sub _ | Return ->
      ()
  in
  List.iter walk (elt.handler @ List.concat_map snd elt.subs);
  Option.value ~default:"<synthetic>" !found

(** Render the full report. *)
let render (elt : element) (p : Interp.profile) =
  let b = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  addf "Workload profile for %s (%d packets)" elt.name p.Interp.packets;
  addf "  verdicts: %d emitted, %d dropped" p.Interp.emitted p.Interp.dropped;
  addf "  hottest statements (executions per packet):";
  List.iter
    (fun (sid, count) ->
      addf "    %6.2f  %s"
        (float_of_int count /. float_of_int (max 1 p.Interp.packets))
        (statement_text elt sid))
    (hot_statements p);
  (match structure_frequencies elt p with
  | [] -> addf "  stateless element: no structure accesses"
  | freqs ->
    addf "  structure accesses per packet:";
    List.iter (fun (name, f) -> addf "    %6.2f  %s" f name) freqs);
  let maps =
    List.filter_map (fun d -> match d with Map { name; _ } -> Some name | _ -> None) elt.state
  in
  List.iter
    (fun m -> addf "  %s: %.2f probes per operation" m (Interp.mean_probes p m))
    maps;
  (match
     List.sort (fun (a, _) (b, _) -> compare a b)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.Interp.api_counts [])
   with
  | [] -> ()
  | apis ->
    addf "  framework API calls:";
    List.iter (fun (name, c) -> addf "    %6d  %s" c name) apis);
  Buffer.contents b
