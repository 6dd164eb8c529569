(** Fig. 1 — design-space exploration in the Performance x Area plane.

    One series per tool; each point is one explored configuration
    (Verilog 3, Chisel 3, BSC 26, XLS 19, MaxCompiler 2, Bambu 42,
    Vivado HLS 5 — 100 synthesized circuits). *)

type point = {
  label : string;
  area : int;
  throughput_mops : float;
  fmax_mhz : float;
}

type series = { tool : Design.tool; points : point list }

val compute :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  series list
(** Measures every sweep configuration of [kernel] (default the paper's
    IDCT) on the domain pool ({!Parallel.map}; [jobs] defaults to
    {!Parallel.default_jobs}).  Nothing is cached here: a repeated call
    re-reads every point from the {!Evaluate} memo.  The result is
    deterministic: the same series, point for point, for any job
    count. *)

val compute_result :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  series list * Flow.error list
(** The keep-going sweep ({!Evaluate.measure_all_result}): failed points
    are dropped from their series and returned as typed errors in sweep
    order; every surviving point is identical to the fail-fast run. *)

val points :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  (Design.tool * point) list
(** {!compute} flattened to one [(tool, point)] list in series order —
    the point set the DSE cross-check compares against. *)

val write_json :
  ?kernel:(module Kernel.KERNEL) -> string -> series list -> unit
(** Write the series as JSON (tool, label, area, throughput, fmax) via
    {!Trace.write_atomic} — the machine-readable twin of the ASCII
    scatter ([hlsvhc fig1 --json]).  Non-default kernels add a
    ["kernel"] field; the IDCT artifact is byte-identical to the
    pre-kernel format. *)

val render_series :
  ?kernel:(module Kernel.KERNEL) -> series list -> string
(** Render an already-computed series list (data table + scatter);
    [kernel] supplies the axis caption and legend.  When no point is
    left (every design failed under keep-going), the axis-range line
    reads ["no points"] instead of infinite bounds. *)

val render :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  string
(** Data table plus an ASCII log-log scatter of the plane. *)

val render_result :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  string * Flow.error list
(** {!render} over {!compute_result}: the figure restricted to the
    surviving points, plus the failures for the caller's summary. *)
