(** The two MaxJ IDCT kernels of the paper.

    [initial_system] inputs and outputs a whole 8x8 matrix every tick; the
    kernel is deeply pipelined to the stream clock and the system
    throughput is bound by PCIe bandwidth, not by the fabric.

    [opt_system] receives one row per tick and keeps intermediate results
    in on-chip stream holds (double-banked transpose buffer); it trades
    throughput (now frequency-bound, one matrix per eight ticks) for a
    much smaller kernel. *)

val initial_kernel : unit -> Hw.Netlist.t
val initial_system : unit -> Manager.system

val opt_kernel : unit -> Hw.Netlist.t
val opt_system : unit -> Manager.system

(** Each call of a [*_kernel] or [*_system] function builds a fresh
    kernel; callers that share one keep it themselves (the registry's
    design cells). *)

val simulate_initial : Manager.system -> Axis.Block.t list -> Axis.Block.t list
(** Bit-true check of the matrix-per-tick system's kernel. *)

val simulate_opt : Manager.system -> Axis.Block.t list -> Axis.Block.t list
(** Bit-true check of the row-per-tick system's kernel (reassembles the
    column stream). *)
