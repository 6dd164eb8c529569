(** Table II — the full evaluation matrix: per tool, the initial and
    optimized designs with LOC, automation, quality, controllability,
    flexibility and the raw synthesis indicators. *)

type column = {
  design : Design.t;
  measured : Metrics.measured;
  loc : int;
  alpha : float;
  quality : float;
}

type row = {
  tool : Design.tool;
  initial : column;
  optimized : column;
  delta_l : int;
  controllability : float;   (** C_Q, percent of the Verilog optimum *)
  flexibility : float;       (** F_Q *)
}

val compute_result :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:Kernel.t ->
  unit ->
  row list * Flow.error list
(** Measures every design of [kernel] (default the paper's IDCT) on the
    domain pool ({!Evaluate.measure_all_result}, one [measure] per
    design), then assembles the rows sequentially from the returned
    measurements, so the result is identical for any job count.
    Nothing is cached here: a repeated call re-reads the {!Evaluate}
    memo.  [tools] restricts the rows (registration order, duplicates
    ignored); the anchor pair — the kernel's first registered tool,
    Verilog for the IDCT — is still measured, since alpha and C_Q are
    normalized against it.

    A tool whose initial or optimized design fails loses its column
    pair; the failures come back as typed errors.  Because every
    indicator is normalized against the anchor columns, a failed anchor
    design yields no rows at all (the failures still report every broken
    design). *)

val compute :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:Kernel.t ->
  unit ->
  row list
(** {!compute_result} through {!Flow.fail_fast}: raises the first
    failed design's {!Flow.Error}. *)

val render_rows : row list -> string
(** The table in the paper's layout (rows = indicators, columns = tools). *)
