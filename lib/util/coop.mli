(** Cooperative jobs: a long computation run in slices on the calling
    domain, so the caller can do other work between slices.

    A job's body calls {!yield} at its yield points.  Inside a slice
    ({!step}) a yield suspends the job and returns control to the
    caller, once the slice has run 50 µs: a run of cheap steps between
    yield points then costs the caller one turn, not one per step.
    Anywhere else — outside every job, on another domain, or inside a
    {!Pool} task — it does nothing, for one domain-local read outside a
    job.

    Each job keeps its own span context ({!Obs.Span.save}) across
    suspensions: a slice runs under the context the job last suspended
    with (the caller's, for the first slice), and the caller's context
    is back in place when {!step} returns.  Nothing the caller records
    between slices lands under the job's open spans or trace id, nor the
    job's under the caller's. *)

type 'a t

(** A job that runs [body] once stepped; nothing runs yet. *)
val create : (unit -> 'a) -> 'a t

(** A yield point: suspend the job running this slice, if any, once the
    slice is 50 µs old. *)
val yield : unit -> unit

(** Run the job until its next yield ([None]) or until the body returns
    ([Some v]).  An exception escaping the body escapes [step].
    @raise Invalid_argument once the job has finished. *)
val step : 'a t -> 'a option

(** Has the job run a slice yet? *)
val started : 'a t -> bool

(** End a job: a suspended one is discontinued at its yield point, so
    its finalizers ([Fun.protect], span closes) run now.  A fresh or
    finished job is only marked finished.  Whatever the body returns or
    raises on the way out is dropped. *)
val cancel : 'a t -> unit
