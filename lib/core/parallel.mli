(** Domain-pool evaluation engine.

    Evaluating the paper's artifacts means measuring ~100 independent
    synthesized circuits (Fig. 1) — an embarrassingly parallel workload.
    {!map_result} fans jobs out over a fixed-size pool of domains with
    deterministic result ordering and runs every item to completion: a
    failure is a value in its input slot, never a reason to stop the
    batch.  {!map} is its raising view.  {!Memo} is the shared,
    mutex-protected result cache the evaluation pipeline layers on top.

    A map owns the [jobs] domains it was asked for.  The ones it runs no
    worker on (a batch shorter than [jobs]; a 1-item batch runs inline)
    and the slot of each spawned worker whose claim loop has ended are
    lent to a process-wide {!spare} count, and taken back before the map
    returns.  {!fork} borrows a spare slot to start a thunk on a helper
    domain; without one, the thunk runs inline at {!join}.  Only a map
    called outside any pool job lends, so a fork inside a saturated map
    runs inline, and [~jobs:1] never spawns a helper (DESIGN.md §9).

    Jobs must not share mutable builder state across domains: a design's
    circuit cell ({!Once}) is built inside the single job that first
    forces it (see DESIGN.md §9). *)

val default_jobs : unit -> int
(** The [HLSVHC_JOBS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()].  A set but
    invalid [HLSVHC_JOBS] falls back to the domain count with a one-time
    stderr warning. *)

val map_result :
  ?jobs:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** [map_result ?jobs f xs] applies [f] to every item on a pool of
    [min jobs (List.length xs)] domains ([default_jobs ()] when [jobs] is
    omitted; [~jobs:1] runs inline on the calling domain).  The calling
    domain is one of them: it runs worker 0 and spawns the rest.  Every item
    runs to completion regardless of other items' failures, and each
    slot carries its own outcome — the job's value, or the exception
    (with backtrace) it raised.  Result order is the input order for any
    job count; every domain is joined, and the call itself never raises
    on a failing job.

    When {!Trace} is enabled, a pooled run records a ["pool"/"map"] span
    (counters [jobs], [items]) on the caller and one
    ["pool/workerN"/"worker"] span per domain (counters [claimed],
    [busy_us]).  ["pool/worker0"] is the caller's, a child of the open
    map span; a spawned worker's span is a root on its own domain. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] is [List.map f xs] computed by {!map_result}: the
    whole batch runs, then the exception of the lowest-index failing
    item is re-raised — the same exception at every job count. *)

val spare : unit -> int
(** The slots the running maps lend that no helper holds: the number of
    {!fork}s that would start a helper right now. *)

type 'a fork
(** A thunk started by {!fork}; {!join} it or {!drop} it exactly once. *)

val fork : (unit -> 'a) -> 'a fork
(** [fork f] starts [f] on a helper domain when a spare slot is free,
    holding the slot until the join.  Otherwise [f] is deferred: it runs
    at {!join} on the joining domain, or never if the fork is dropped. *)

val join : 'a fork -> 'a
(** The value of the forked thunk, or its exception re-raised with its
    backtrace.  Waiting for a helper is a ["wait"] span on the caller's
    innermost open span (see {!Trace.with_inner_span}). *)

val drop : 'a fork -> unit
(** Discard a fork: a deferred thunk never runs; a helper is joined (its
    slot returns to the spare count) and its outcome ignored. *)

module Memo (V : sig
  type t
end) : sig
  val find_or_compute : key:string -> (unit -> V.t) -> V.t
  (** Return the cached value for [key], or run the thunk and cache its
      result.  The lock is never held during the computation; when two
      domains race on one missing key, the first store wins and both
      return the canonical value. *)

  val mem : string -> bool
  val size : unit -> int
  val clear : unit -> unit
end
