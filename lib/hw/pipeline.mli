(** Automatic pipelining of combinational circuits.

    Splits a purely combinational circuit into [stages] delay-balanced
    stages and inserts register ranks between them (including a rank on the
    outputs), the scheduling XLS performs for its pipelined codegen.  A
    path from any input to any output crosses exactly [stages] registers,
    so the result has a latency of [stages] cycles at an initiation
    interval of one. *)

val retime : stages:int -> Netlist.t -> Netlist.t
(** Stages are balanced against the {!Device.xcvu9p} delay model.
    @raise Invalid_argument if [stages < 1] or the circuit has registers. *)
