(** Simulation testbench for wrapped designs.

    Streams coefficient matrices into a circuit that follows the {!Stream}
    port convention, collects the resulting sample matrices, measures
    latency and periodicity, and runs the protocol {!Monitor} on the output
    side.

    Beats within one matrix are issued back to back (the adapters'
    streaming contract); [input_gap] idle cycles may be inserted between
    matrices, and [ready_pattern] can exercise back-pressure.

    The testbench has two shapes.  {!run} streams every matrix through
    one simulation lane.  {!transform_batch} gives each matrix its own
    lane of the levelized engine, and every lane runs its own
    independent copy of the testbench on a shared clock — one pass over
    the compiled schedule advances all of them.  Protocol monitoring runs
    per lane, online ({!Monitor.observe}).  The testbench drives
    {!Hw.Sim} directly: its stream ports are resolved to handles once
    per run, and each cycle moves every port's lanes in one
    {!Hw.Sim.set_row} or {!Hw.Sim.get_row} call (11 input rows, 3
    handshake rows, and the 8 [m_data] rows only when some lane has
    [m_valid] up), so a cycle does no name lookup and no allocation.

    A quiet cycle is one with no lane driving a beat or waiting out an
    input gap, and no lane with [m_valid] or [m_last] up on this cycle or
    the one before.  It can change no lane's testbench or monitor state,
    so the testbench visits no lane then, and once the 10 [s_valid],
    [s_last] and [s_data] rows hold the zeros of an idle input it stops
    storing them. *)

type result = {
  outputs : Block.t list;
  latency : int;
      (** steady-state cycles from a matrix's first input beat to its last
          output beat (measured on the final matrix) *)
  periodicity : int;
      (** steady-state distance in cycles between the final two
          matrices' first input beats (the latency for one matrix) *)
  cycles : int;              (** total simulated cycles *)
  violations : Monitor.violation list;
}

exception Protocol_violation of Monitor.violation
(** Raised by {!transform_batch} on an AXI-Stream violation. *)

val run :
  ?input_gap:int ->
  ?ready_pattern:(int -> bool) ->
  ?timeout:int ->
  ?hook:(string -> int -> unit) ->
  Hw.Netlist.t ->
  Block.t list ->
  result
(** Streams the matrices, in order, through one simulator lane.
    @raise Invalid_argument if [matrices] is empty
    (["Driver.run: no matrices"]).
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
    size) after the simulator is built, then [cycles] and [evals]
    ({!Hw.Sim.evaluations}: the schedule rows evaluated, only those whose
    inputs changed) when the stream drains;
    it must not affect the result. *)

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
    schedule sweeps.  An empty list returns [[]].

    Staged: [transform_batch ?hook circuit] returns a closure that owns
    one simulator instance per lane count it has run (a full 64-lane
    chunk, a shorter final chunk), created on first use and
    {!Hw.Sim.reset} on every reuse, across chunks and across calls.  Apply
    the circuit once and call the closure many times to build each
    instance once.  The closure is stateful: do not share it across
    domains.  [hook] fires as in {!run}, once per chunk.

    Every lane of a chunk starts from reset and sees the same handshake,
    so the simulator is promised ({!Hw.Sim.create} [~uniform]) that
    [s_valid], [s_last] and [m_ready] have one value in every lane — but
    only when, under that promise, it reports [s_ready], [m_valid] and
    [m_last] lane-uniform too (the lanes then accept and deliver beats
    together).  A circuit whose handshake depends on the data gets a
    simulator with no promise.  Were the lanes to fall out of step
    anyway, {!Hw.Sim.set_row} would raise [Invalid_argument] rather than
    simulate wrong values.

    Every lane's protocol {!Monitor} verdict is checked: a call raises
    {!Protocol_violation} with the first violation of the lowest lane
    that has one, in the first chunk that has one.
    @raise Failure at the application to [circuit] if it lacks the port
    convention, and from the closure as {!run} does on a timeout. *)
