(** Cycle-accurate two-phase simulation of {!Netlist} circuits: the
    levelized batch engine.

    The simulator evaluates the combinational fabric in topological order
    and updates all registers atomically on {!step}.  Values are exchanged
    as OCaml [int]s in the unsigned representation of the node's width.

    The live schedule is levelized once at {!create} time into a flat
    struct-of-arrays instruction table — integer opcodes with all masks,
    shift amounts and sign constants resolved — and every node's value
    lives in one preallocated [int array].  The steady-state path
    allocates nothing and makes no indirect calls: settling is one sweep
    of the table.

    [create ?batch] adds a batch dimension: the value array is laid out
    [uid * batch + lane] and each instruction's inner loop evaluates all
    lanes, so one pass over the schedule advances [batch] independent
    simulations of the same circuit in lockstep.  All lanes share the
    clock ({!step} advances every lane); they differ only in the inputs
    driven per lane and the state that evolves from them.  Every accessor
    takes [?lane] (default 0), so single-lane callers never see the batch
    dimension; {!set_row}/{!get_row} move one port's values of every
    lane in one call, for testbenches that drive all lanes each cycle.

    The sweep evaluates only the rows with an operand that changed since
    the previous sweep, in any lane, and the latch skips registers whose
    [d] and enable did not change since they last latched; {!evaluations}
    counts the rows it did evaluate.  The producers of a change mark the
    rows and registers that read it: a row whose result changed,
    {!set_port} or {!set_row} of a new value, a latch that changed a
    register, an applied memory write (even of the word already stored)
    and {!reset} each set a pending byte per reader, and the sweep tests
    one byte per row.  This holds at every lane count, single-lane
    included.

    Lanes work apart only where they differ.  [create ~uniform] takes
    the input ports the caller promises to drive with one value in every
    lane, and computes the lane-uniform nodes as a greatest fixpoint: a
    combinational node is uniform when all its operands are, a register
    when its [d] and enable are, and a memory read never is.  A uniform
    row or register computes and compares lane 0 only.  When its value
    changes it is copied into every lane, but only if some reader needs
    every lane (a per-lane row or register, an output port or a write
    port); otherwise only lane 0 is kept, and {!peek}/{!peek_all} read
    lane 0 of it for any lane.  {!evaluations} still counts rows, so it
    reads the same with or without a promise.  A promised port refuses a
    write that would make its lanes differ.

    On the clock edge, a register that no register reads (as [d] or
    enable) latches in one in-place pass; only the registers that feed a
    register compute their next value before any is stored.  A memory
    write port or a register whose enable is 0 in every lane does
    nothing: the port gathers and applies no write, the register does
    not latch.

    Dead nodes are eliminated and concat chains fused; {!peek} of an
    eliminated node evaluates it on demand.
    {!Equiv.crosscheck} checks this engine, lane by lane, against the
    reference interpreter that defines the semantics. *)

type t

val create : ?uniform:string list -> ?batch:int -> Netlist.t -> t
(** Levelizes the evaluation schedule.  The circuit must already be
    valid.  [batch] (default 1) is the number of independent simulation
    lanes; it is fixed for the lifetime of the instance.  [uniform]
    (default none) names the input ports the caller promises to drive
    with one value in every lane; {!is_uniform} tells which ports are
    lane-uniform under that promise.
    @raise Invalid_argument if [batch < 1] or a name in [uniform] is not
    an input port. *)

val circuit : t -> Netlist.t

val batch : t -> int
(** The number of lanes this instance was created with. *)

val compiled_nodes : t -> int
(** Number of instructions in the levelized schedule (after dead-node
    elimination, source removal and concat fusion).  The nodes left out
    are still observable through {!peek}. *)

val reset : t -> unit
(** Loads every register with its [init] value and zeroes the memories,
    in every lane.  Inputs keep their current values (initially 0). *)

type port
(** A resolved port of one circuit: name lookup happens once, in
    {!in_port}/{!out_port}, and {!set_port}/{!get_port} then touch only
    integers.  A handle is valid for every instance of the circuit it was
    resolved on. *)

val in_port : t -> string -> port
(** The handle of an input port, for {!set_port}.
    @raise Invalid_argument on an unknown input name, listing the
    circuit's input ports. *)

val out_port : t -> string -> port
(** The handle of an output port, for {!get_port}.
    @raise Invalid_argument on an unknown output name. *)

val set_port : t -> port -> lane:int -> int -> unit
(** [set_port sim p ~lane v] drives input [p] of lane [lane] with [v]
    (masked to the port width; negative values are taken as two's
    complement).
    @raise Invalid_argument on an out-of-range lane, or when [p] is a
    promised uniform input of a multi-lane instance and [v] differs from
    its other lanes (["Sim.set_port: the lanes of uniform input NAME must
    not differ"]). *)

val get_port : t -> port -> lane:int -> int
(** Unsigned value of output [p] in lane [lane], after settling the
    fabric.
    @raise Invalid_argument on an out-of-range lane. *)

val set_row : t -> port -> int array -> unit
(** [set_row sim p row] is [set_port sim p ~lane:l row.(l)] for every
    lane [l], in one call: lane values are stored contiguously, so the
    row costs one masked compare-and-store loop.
    @raise Invalid_argument unless [Array.length row = batch sim], or
    when [p] is a promised uniform input and the lanes of [row] differ
    (["Sim.set_row: the lanes of uniform input NAME must not differ"]);
    nothing is stored then. *)

val get_row : t -> port -> int array -> unit
(** [get_row sim p row] stores [get_port sim p ~lane:l] in [row.(l)] for
    every lane [l]: one settle, one blit.
    @raise Invalid_argument unless [Array.length row = batch sim]. *)

val is_uniform : t -> port -> bool
(** Whether the port's node has one value in every lane under the
    promise given to {!create} (never, without one). *)

val set : ?lane:int -> t -> string -> int -> unit
(** [set ~lane sim port v] is {!set_port} on [in_port sim port], lane
    [lane] (default 0).
    @raise Invalid_argument on an unknown input name (listing the
    circuit's input ports) or an out-of-range lane. *)

val get : ?lane:int -> t -> string -> int
(** {!get_port} on [out_port sim port], lane [lane] (default 0).
    @raise Invalid_argument on an unknown output name or a bad lane. *)

val get_signed : ?lane:int -> t -> string -> int

val step : t -> unit
(** One rising clock edge for every lane: settle, gather enabled memory
    writes, latch all registers, then apply the writes in declared port
    order (on an address conflict the later-declared port wins — the
    resolution is per lane). *)

val step_n : t -> int -> unit

val peek : ?lane:int -> t -> Netlist.uid -> int
(** Unsigned value of an arbitrary node in lane [lane] (default 0), after
    settling.  A node outside the schedule (dead logic, or a concat fused
    into its consumer) is evaluated on demand from the settled values,
    each call afresh: its cone is walked once per call and nothing is
    cached between calls, so waveform recording over dead logic still
    works at the cost of that walk. *)

val peek_all : ?lane:int -> t -> int array
(** [peek_all ~lane sim] is the array of [peek ~lane sim u] for every
    node [u], indexed by uid: one settle, and one memo for the whole
    pass, so a dead cone shared by several nodes is walked once. *)

val peek_signed : ?lane:int -> t -> Netlist.uid -> int

val cycle_count : t -> int
(** Number of {!step}s since creation or the last {!reset}. *)

val evaluations : t -> int
(** Number of instruction-table rows evaluated (each over every lane,
    or lane 0 of a uniform row) since creation or the last {!reset}: only
    the rows that ran, those with an operand that changed, so
    [evaluations / (cycle_count * compiled_nodes)] is the activity factor
    of the stimulus, at any lane count, with or without a [uniform]
    promise. *)

val mem_word : ?lane:int -> t -> Netlist.mem_id -> int -> int
(** Current contents of one memory word in lane [lane] (for state
    cross-checks). *)
