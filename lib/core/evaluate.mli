(** Cached measurement of design points.

    The measurement itself is the staged pipeline of {!Flow}
    (elaborate → validate → simulate → verify → synthesize → metrics,
    following the paper's procedure); this layer adds the process-wide
    content-keyed result cache and the root ["measure"] trace span with
    its cache hit/miss counters.

    Every measurement checks the design bit-true against the kernel's
    reference (the fixed-point IDCT {!Idct.Chenwang} under the default
    spec) and fails loudly — with a typed {!Flow.Error} — on a
    functional mismatch or an AXI-Stream protocol violation. *)

val measure : ?matrices:int -> spec:Flow.spec -> Design.t -> Metrics.measured
(** [matrices] (default 4) sets the simulated stream length; [spec]
    selects the kernel's stimulus/reference and is required at every
    call site — there is no silent default kernel; pass
    [Flow.idct_spec] (or resolve one through {!Kernel}) explicitly.
    Results are memoized in a process-wide cache keyed by spec, tool,
    label and a digest of the configuration and source listing (plus
    [matrices]), shared across domains behind a mutex. *)

val clear_measure_cache : unit -> unit
(** Drop every memoized measurement, and the simulations and syntheses
    {!Flow.measure_uncached} shares between design points (tests and
    benchmarks).  Only in-process memos are cleared: entries in an
    attached persistent store survive, so a subsequent {!measure}
    re-reads them from disk. *)

(** {1 Persistent store backend}

    The content-addressed on-disk result store (lib/store) plugs in
    beneath the in-process memo through this interface, so [core] stays
    independent of the on-disk format.  On a memo miss with a backend
    attached, {!measure} first consults [sb_find] (counted as
    [store_hit]/[store_miss] in the trace); a fresh measurement is
    written through with [sb_add].  With no backend (the default) the
    measure path is byte-identical to the historical one. *)

type store_backend = {
  sb_name : string;  (** for diagnostics, e.g. the store directory *)
  sb_find : string -> Metrics.measured option;
  sb_add : string -> Metrics.measured -> unit;
}

val set_store_backend : store_backend option -> unit
(** Attach (or detach, with [None]) the persistent layer, process-wide.
    Attach before fanning out: workers observe the backend through an
    atomic. *)

val measure_key : matrices:int -> spec:Flow.spec -> Design.t -> string
(** The content key a measurement is cached (and stored) under:
    spec × tool × label × digest(config, listing) × matrices.  Exposed
    for the persistent store's tooling and tests. *)

val is_cached : ?matrices:int -> spec:Flow.spec -> Design.t -> bool
(** Whether {!measure} on this design would be a cache hit right now —
    the probe behind the DSE engine's cache-hit accounting ([matrices]
    defaults as in {!measure}). *)

val measure_all_result :
  ?jobs:int ->
  ?matrices:int ->
  spec:Flow.spec ->
  Design.t list ->
  (Metrics.measured, Flow.error) result list
(** [measure] over independent designs on the domain pool
    ({!Parallel.map_result}): every design runs to completion, results
    keep input order, and a failed point carries its typed {!Flow.error}
    in its own slot.  Each design's circuit cell is built inside the job
    that first forces it, so builder state never crosses domains. *)

val check_compliance : ?blocks:int -> spec:Flow.spec -> Design.t -> bool
(** The kernel's compliance procedure ([spec.comply] — IEEE 1180-1990
    for the IDCT, bit-true-vs-reference otherwise) through the wrapped
    circuit; PCIe designs are checked bit-true through their own stream
    simulator (dispatching on the design under test).  The default of 500 blocks
    per condition is about the statistical minimum: the per-position
    mean-error criterion (0.015) needs several hundred samples before
    estimator noise stays under the threshold. *)

val compliance_all_result :
  ?jobs:int ->
  ?blocks:int ->
  spec:Flow.spec ->
  Design.t list ->
  (Design.t * (bool, Flow.error) result) list
(** The compliance sweep on the domain pool: every design checked
    concurrently and paired, in input order, with its verdict or the
    typed error its check raised (at stage ["comply"], see
    {!Flow.stage}).  Two pool maps.  The first applies
    [spec.comply ~blocks] once, as its first item, in a ["prepare"]
    span of the engine group ["comply/<kernel>"], while its other items
    force each design (an ["elaborate"] span) and time one zero matrix
    through a stream design's testbench (a ["probe"] span whose [key]
    counter is [cycles * sim_thunks]; 0 for a PCIe design).  The second
    runs the checks costliest key first, every design judged by the
    same checker.  Slots do not depend on the job count or on which
    design is claimed first.  A design whose force raised gets, without
    running its testbench, the error its ["comply"] stage would have
    raised.  Nothing of it outlives the call.
    @raise e if [spec.comply ~blocks] raises [e]. *)

val compliance_all :
  ?jobs:int ->
  ?blocks:int ->
  spec:Flow.spec ->
  Design.t list ->
  (Design.t * bool) list
(** The raising view of {!compliance_all_result}: the same run, then
    the {!Flow.Error} of the first failed design in input order is
    raised. *)
