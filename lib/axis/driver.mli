(** Simulation testbench for wrapped designs.

    Streams coefficient matrices into a circuit that follows the {!Stream}
    port convention, collects the resulting sample matrices, measures
    latency and periodicity, and runs the protocol {!Monitor} on the output
    side.

    Beats within one matrix are issued back to back (the adapters'
    streaming contract); [input_gap] idle cycles may be inserted between
    matrices, and [ready_pattern] can exercise back-pressure.

    With [batch > 1] the matrix list is split into contiguous chunks, one
    per simulation lane of the levelized engine, and every lane runs its
    own independent copy of the testbench on a shared clock — one pass
    over the compiled schedule advances all of them.  Results concatenate
    back in input order; protocol monitoring runs per lane, online
    ({!Monitor.observe}).  The testbench drives {!Hw.Sim} directly: its
    stream ports are resolved to handles once per run, so a cycle does no
    name lookup and no allocation. *)

type result = {
  outputs : Block.t list;
  latency : int;
      (** steady-state cycles from a matrix's first input beat to its last
          output beat (measured on the final matrix) *)
  periodicity : int;
      (** steady-state distance in cycles between consecutive matrices'
          first input beats; in a batched run, measured within the lane
          holding the final matrix *)
  cycles : int;              (** total simulated cycles *)
  violations : Monitor.violation list;
}

val run :
  ?batch:int ->
  ?input_gap:int ->
  ?ready_pattern:(int -> bool) ->
  ?timeout:int ->
  ?hook:(string -> int -> unit) ->
  Hw.Netlist.t ->
  Block.t list ->
  result
(** [batch] (default 1) is the number of simulation lanes the matrices
    are spread across.
    @raise Failure if the circuit lacks the port convention or the
    simulation runs out of budget.  An explicit [timeout] caps the total
    cycles.  Without one, the budget is a stall watchdog: the run fails
    after 2000 consecutive cycles (plus [input_gap]) in which no lane
    accepts an input beat or delivers an output beat, scaled by the
    inverse of [ready_pattern]'s duty cycle, sampled over the first 1024
    cycles — patterns must therefore be pure functions of the cycle
    number.  A slow but correct design is thus never cut off, and a run
    always ends.  The timeout message reports cycles simulated, the
    sampled duty cycle, the batch width, and collected-vs-expected
    output beats and consumed input beats.  [hook] is a stage hook for
    observability layers: called with [sim_thunks] (compiled schedule
    size) after the simulator is built, [sim_batch] (lane count, only
    when batching is actually in effect) and [cycles] when the stream
    drains; it must not affect the result. *)

val transform : Hw.Netlist.t -> Block.t -> Block.t
(** Convenience: push one matrix through and return the result. *)

val transform_batch :
  ?hook:(string -> int -> unit) ->
  Hw.Netlist.t ->
  Block.t list ->
  Block.t list
(** Bulk [transform]: each matrix is an independent fresh-reset
    single-matrix run mapped onto its own simulation lane (capped at 64
    lanes per simulator instance), so the outputs are byte-for-byte what
    per-matrix {!transform} calls would return — at a fraction of the
    schedule sweeps. *)
