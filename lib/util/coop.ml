(** Cooperative jobs over one effect (see coop.mli). *)

open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

(* While this domain runs a slice of a job: [active], and when the
   slice began. *)
type slice_state = { mutable active : bool; mutable began : float }

let slice_key : slice_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = false; began = 0.0 })

(* A slice runs on past yield points until it is this old, so a run of
   cheap stages (memoized block predictions, short packet runs) costs
   one turn of the caller's loop, not one per yield point. *)
let quantum_s = 50e-6

(* A pool task runs to completion inside its region: suspending it would
   strand the region's other tasks behind the caller's next slice. *)
let yield () =
  let s = Domain.DLS.get slice_key in
  if s.active && (not (Pool.in_task ())) && Obs.Clock.now_s () -. s.began >= quantum_s then
    Effect.perform Yield

type 'a state =
  | Fresh of (unit -> 'a)
  | Suspended of (unit, 'a option) continuation
  | Finished

type 'a t = { mutable state : 'a state; mutable ctx : Obs.Span.context option }

let create body = { state = Fresh body; ctx = None }
let started j = match j.state with Fresh _ -> false | Suspended _ | Finished -> true

(* One slice: the job's span context and the slice state in place while
   [resume] runs, the caller's back however it ends. *)
let slice j resume =
  let outer = Obs.Span.save () in
  Option.iter Obs.Span.restore j.ctx;
  let s = Domain.DLS.get slice_key in
  let was = s.active and began = s.began in
  s.active <- true;
  s.began <- Obs.Clock.now_s ();
  let leave () =
    j.ctx <- Some (Obs.Span.save ());
    s.active <- was;
    s.began <- began;
    Obs.Span.restore outer
  in
  match resume () with
  | r ->
    leave ();
    r
  | exception e ->
    leave ();
    raise e

let handler j =
  { retc = (fun v -> Some v);
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Yield ->
          Some
            (fun (k : (b, _) continuation) ->
              j.state <- Suspended k;
              None)
        | _ -> None) }

let step j =
  match j.state with
  | Fresh body ->
    j.state <- Finished;
    slice j (fun () -> match_with body () (handler j))
  | Suspended k ->
    j.state <- Finished;
    slice j (fun () -> continue k ())
  | Finished -> invalid_arg "Coop.step: the job has finished"

exception Cancelled

let rec cancel j =
  match j.state with
  | Suspended k ->
    j.state <- Finished;
    (try ignore (slice j (fun () -> discontinue k Cancelled)) with _ -> ());
    (* a body that caught [Cancelled] and yielded again goes the same way *)
    cancel j
  | Fresh _ | Finished -> j.state <- Finished
