(** Script execution with per-step verification (DESIGN.md §17).

    Every applied step is immediately followed by the discharge of its
    {!Verify.obligation} {e and} a {!Hw.Equiv.crosscheck} of the result
    (at batch 1 and across 4 lanes), so a broken transformation is caught
    at the step that introduced it, with the step name in the error.

    The 4-lane crosscheck is handed to the injected {!forker} before the
    other two checks run on the caller, and its outcome is read only when
    both pass: on a spare domain it overlaps them, otherwise it runs after
    them, as a deferred thunk, or not at all.  Either way the verdict is
    that of the three checks in order. *)

type tracer = {
  wrap : 'a. design:string -> stage:string -> (unit -> 'a) -> 'a;
  counter : string -> int -> unit;
}
(** Tracing is injected (rather than depending on [Core.Trace] directly)
    to keep the library dependency graph acyclic: [Core.Registry] uses
    this engine to re-derive designs, and installs the real tracer at
    module initialisation. *)

val set_tracer : tracer -> unit

type forker = { fork : 'a. (unit -> 'a) -> (unit -> 'a) * (unit -> unit) }
(** [fork f] starts [f] where it sees fit and returns its [(join, drop)]:
    [join ()] is [f ()]'s value or exception, [drop ()] discards [f]
    without waiting on anything but a run already started.  Injected for
    the reason {!tracer} is ([Core.Kernel] installs [Core.Parallel.fork]);
    the default defers [f] to [join].  A thunk run on another domain than
    the one that forked it is wrapped in a ["transfo:verify"] span of the
    tracer there. *)

val set_forker : forker -> unit

type error =
  | Unknown_transfo of string
  | Precondition_failed of { pf_step : string; pf_reason : string }
  | Verify_failed of {
      vf_step : string;
      vf_obligation : string;
      vf_reason : string;
    }

val error_to_string : error -> string

type step_report = {
  sr_step : string;  (** canonical step text, e.g. ["retime 2"] *)
  sr_obligation : string;
  sr_nodes_before : int;
  sr_nodes_after : int;
}

type report = { rep_subject : Subject.t; rep_steps : step_report list }

val apply_step :
  ?cycles:int ->
  ?seed:int ->
  (module Catalog.TRANSFO) ->
  arg:int option ->
  Subject.t ->
  (Subject.t * step_report, error) result
(** One step: check precondition, apply, discharge the obligation over
    [cycles] (default 256) random cycles with [seed] (default 7), then
    crosscheck the levelized engine against the reference interpreter on
    the result (at batch 1, plus a 4-lane batched crosscheck).
    Exceptions raised by the transformation or the checkers are reported
    as failures, never propagated.

    The verification runs at most once per process for each content key
    (the obligation, [cycles], [seed] and digests of both circuits): a
    later call with the same key, on any domain, reuses the verdict, and
    a concurrent one waits for it.  The step itself is always applied.
    A reused verdict shows as the counter [verify_reused] on the
    [transfo:verify] span, a fresh one as [verify_cycles].  A
    verification that raises is not remembered. *)

val run :
  ?cycles:int ->
  ?seed:int ->
  Script.t ->
  Subject.t ->
  (report, error) result
(** Folds {!apply_step} over the script, resolving step names through
    {!Catalog.find}.  Stops at the first failing step. *)
