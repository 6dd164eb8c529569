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

val compute_result :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:Kernel.t ->
  unit ->
  series list * Flow.error list
(** Measures every sweep configuration of [kernel] (default the paper's
    IDCT) on the domain pool ({!Evaluate.measure_all_result}; [jobs]
    defaults to {!Parallel.default_jobs}).  A failed point is dropped
    from its series and returned as a typed error, in sweep order.
    Nothing is cached here: a repeated call re-reads every point from
    the {!Evaluate} memo.  The result is deterministic: the same series
    and failures, point for point, for any job count. *)

val compute :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:Kernel.t ->
  unit ->
  series list
(** {!compute_result} through {!Flow.fail_fast}: raises the first
    failed point's {!Flow.Error}. *)

val points :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:Kernel.t ->
  unit ->
  (Design.tool * point) list
(** {!compute} flattened to one [(tool, point)] list in series order —
    the point set the DSE cross-check compares against. *)

val write_json :
  ?kernel:Kernel.t -> string -> series list -> unit
(** Write the series as JSON (tool, label, area, throughput, fmax) via
    {!Trace.write_atomic} — the machine-readable twin of the ASCII
    scatter ([hlsvhc fig1 --json]).  Non-default kernels add a
    ["kernel"] field; the IDCT artifact is byte-identical to the
    pre-kernel format. *)

val scatter :
  legend_suffix:string -> Kernel.t -> (int * float * char) list -> string
(** The Fig. 1 projection: [(area, throughput_mops, glyph)] points on a
    72x24 log-log grid, drawn in list order (a later point takes its
    cell), under the axis caption and a legend line naming the kernel's
    tools ({!Registry.entry} legends) followed by [legend_suffix], then
    the axis ranges — ["no points"] when the list is empty. *)

val render_series :
  ?kernel:Kernel.t -> series list -> string
(** Render an already-computed series list (data table + scatter);
    [kernel] supplies the axis caption and legend.  When no point is
    left (every design failed), the axis-range line
    reads ["no points"] instead of infinite bounds. *)
