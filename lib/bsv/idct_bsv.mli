(** The IDCT benchmark written as rule modules.

    [initial_design] is the manual translation of the reference C program:
    collect a matrix, one rule performs all eight row passes, one rule all
    eight column passes, then drain — stages overlap only through
    full/busy flags.

    [optimized_design] is the macro-pipelined organization (one row unit
    applied per beat, one column unit per cycle, ping-pong banks tracked by
    produced/consumed counters).  Each 8-beat phase needs a ninth cycle for
    its commit rule — the commit conflicts with the per-beat rule on the
    phase counter — which reproduces the one-cycle scheduling "bubble" the
    paper reports for BSC (periodicity 9 instead of 8). *)

val initial_design : unit -> Lang.modul
val optimized_design : unit -> Lang.modul
(** Each call builds the module afresh; a caller that compiles one
    module several times keeps it. *)

val circuit : ?options:Options.t -> Lang.modul -> Hw.Netlist.t
(** Compile to a netlist with AXI-Stream ports. *)
