(** Cycle-accurate two-phase simulation of {!Netlist} circuits.

    The simulator evaluates the combinational fabric in topological order
    and updates all registers atomically on {!step}.  Values are exchanged
    as OCaml [int]s in the unsigned representation of the node's width.

    This interface is backed by the levelized batch engine ({!Compile}):
    the live schedule is flattened into an instruction table at
    {!create} time and settling is one allocation-free sweep over it.
    The monomorphic functions below always address lane 0, so single-lane
    callers never see the batch dimension; {!create_batch} and the
    [_lane] accessors expose it for bulk workloads.  The reference
    interpreter ({!Interp}) defines the semantics; {!Equiv.crosscheck}
    verifies the two agree cycle-by-cycle. *)

type t

val create : Netlist.t -> t
(** Builds the evaluation schedule with a single lane.  The circuit must
    already be valid. *)

val create_batch : batch:int -> Netlist.t -> t
(** Builds the schedule with [batch] independent simulation lanes.  All
    lanes share the clock — {!step} advances every lane — and differ only
    in the inputs driven per lane and the state evolving from them.
    @raise Invalid_argument if [batch < 1]. *)

val circuit : t -> Netlist.t

val batch : t -> int
(** The number of lanes this simulator was created with (1 for
    {!create}). *)

val reset : t -> unit
(** Loads every register with its [init] value and zeroes the memories,
    in every lane.  Inputs keep their current values (initially 0). *)

type port
(** A resolved port handle (see {!Compile.port}): resolve once with
    {!in_port}/{!out_port}, then drive and sample it per lane with no
    name lookup.  The string-keyed accessors below are wrappers over
    these. *)

val in_port : t -> string -> port
(** @raise Invalid_argument on an unknown input name, listing the
    circuit's input ports. *)

val out_port : t -> string -> port
(** @raise Invalid_argument on an unknown output name. *)

val set_port : t -> port -> lane:int -> int -> unit
(** Drives an input of one lane (masked to the port width).
    @raise Invalid_argument on an out-of-range lane. *)

val get_port : t -> port -> lane:int -> int
(** Unsigned value of an output in one lane, after settling.
    @raise Invalid_argument on an out-of-range lane. *)

val set : t -> string -> int -> unit
(** [set sim port v] drives input [port] of lane 0 with [v] (masked to
    the port width; negative values are taken as two's complement).
    @raise Invalid_argument on an unknown input name, listing the
    circuit's input ports. *)

val get : t -> string -> int
(** Unsigned value of an output port in lane 0, after settling the
    fabric.
    @raise Invalid_argument on an unknown output name. *)

val get_signed : t -> string -> int

val set_lane : t -> lane:int -> string -> int -> unit
(** As {!set}, for an explicit lane.
    @raise Invalid_argument on an out-of-range lane. *)

val get_lane : t -> lane:int -> string -> int
val get_signed_lane : t -> lane:int -> string -> int

val step : t -> unit
(** One rising clock edge for every lane: settle, then latch all
    registers and apply enabled memory writes in declared port order (on
    an address conflict the later-declared port wins, resolved per
    lane). *)

val batch_step : t -> unit
(** Explicit batched entry point; identical to {!step}. *)

val step_n : t -> int -> unit

val peek : t -> Netlist.uid -> int
(** Unsigned value of an arbitrary node in lane 0, after settling. *)

val peek_signed : t -> Netlist.uid -> int

val peek_lane : t -> lane:int -> Netlist.uid -> int

val cycle_count : t -> int
(** Number of {!step}s since creation or the last {!reset}. *)

val compiled_nodes : t -> int
(** Instructions left in the levelized schedule after dead-logic
    elimination and concat fusion (see {!Compile.compiled_nodes}). *)

val total_nodes : t -> int
(** Nodes of the underlying netlist. *)
