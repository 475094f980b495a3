(** Fixed-size OCaml 5 [Domain] worker pool with a mutex/condition work
    queue, shared by the offline synthesis pipeline ([lib/core],
    [lib/pgm]) and the serving daemon ([lib/service]). Jobs must be
    self-contained; an exception escaping a {!post}ed job is dropped and
    counted in {!failures}, one from a {!submit}ted job re-raises at
    {!await}. *)

type t

(** Raised deterministically by {!post} and {!submit} once {!shutdown}
    has begun, including while already-accepted jobs are still
    draining. *)
exception Stopped

(** Spawn [size] worker domains (default 4; must be >= 1). *)
val create : ?size:int -> unit -> t

(** Worker count (0 after {!shutdown}). *)
val size : t -> int

(** Posted jobs that raised, since {!create}. The exception itself is
    dropped: a caller that needs it should {!submit} instead. *)
val failures : t -> int

(** Enqueue a fire-and-forget job. Raises {!Stopped} after {!shutdown}.
    The caller's [Obs.Span] context is captured here and restored
    around the job, so spans opened in the worker nest under the
    submitting span. *)
val post : t -> (unit -> unit) -> unit

type 'a future

(** Raises {!Stopped} after {!shutdown}. *)
val submit : t -> (unit -> 'a) -> 'a future

(** Block until the job finishes; re-raises its exception. *)
val await : 'a future -> 'a

(** Run [f] over every element on the pool, preserving order. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [parmap ?pool f xs] is [List.map f xs], fanned out over [pool] when
    one is given (in chunks of [chunk] elements, by default sized for
    4 waves per worker). Order-preserving, so for a pure [f] the result
    is identical at every pool size — the primitive the deterministic
    parallel synthesis pipeline is built on. Must not be called from
    inside a job running on the same pool. *)
val parmap : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list

(** Jobs accepted but not yet finished (queued plus executing) — the
    pool's live queue depth, e.g. for a backlog gauge. *)
val pending : t -> int

(** Block until the queue is empty and no job is running. *)
val wait_idle : t -> unit

(** Refuse new jobs, drain everything already queued, join the workers.
    Idempotent: a second (even concurrent) call is a documented no-op —
    the worker array is detached under the pool lock, so each domain is
    joined exactly once. *)
val shutdown : t -> unit
