(** The paper's Section IV narratives as measured ratios
    ([hlsvhc ablations]; DESIGN.md §5): E5 the Verilog units, E6 MaxJ
    matrix/tick vs row/tick, E7 the Bambu presets and Vivado HLS pragmas,
    E8 the 24-point BSC option grid, E9 HLS memory ports x operator
    chaining, E10 the 8-tap FIR as a second kernel.

    Registered design points go through {!Evaluate.measure_all_result},
    one batch per (spec, stream length): Verilog, MaxJ and C_Q at 4
    matrices (Table II's length); Bambu, Vivado HLS, the BSC grid and
    E10 at 3 (Fig. 1's), so E8 reads the very points Fig. 1 plots.  E9's
    grid is not a registry sweep: its circuits are built, simulated and
    synthesized directly, on the same domain pool. *)

val compute_result : ?jobs:int -> unit -> string * Flow.error list
(** The rendered report and the typed failures, in batch order (a
    design failing identically at both stream lengths is reported
    once).  When anything fails the report is empty: every line is a
    ratio over several points, and a ratio with a missing operand means
    nothing.  The report is byte-identical for any [jobs] (default
    {!Parallel.default_jobs}), with or without tracing, and from a cold
    or warm store. *)
