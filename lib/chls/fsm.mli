(** FSM + datapath generation: a scheduled procedure becomes a synthesizable
    circuit.

    One state per control step; loops become back-edges guarded by
    iteration-counter registers (nested loops compose by priority — the
    innermost back-edge wins).  Scalar variables become registers; values
    crossing control steps are carried in per-operation result registers.
    Non-partitioned arrays are register files whose access networks are
    shared through hash-consing; the scheduler has already enforced their
    port limits.  Multiplications of two non-constant operands share the
    configuration's multiplier units through state-driven operand muxes —
    which is why HLS designs consume generic (DSP) multipliers where the
    hand-written RTL uses constant shift-add networks.

    [SCapture]/[SEmit] regions make the circuit follow the
    {!Axis.Stream} port convention. *)

val circuit : name:string -> Schedule.t -> Hw.Netlist.t

val key : Schedule.t -> string
(** The digest of what {!circuit} reads besides [name]: the variables
    and arrays of the schedule's [proc] and its [regions] (the placed
    operations), not its [config] nor the unscheduled code.  Equal keys
    give netlists that are equal up to the circuit name. *)

val state_count : Schedule.t -> int
(** Number of distinct FSM states (loop bodies are counted once; the cycle
    count of a full run is {!Schedule.total_cycles}). *)
