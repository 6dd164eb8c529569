(** Reference cycle-accurate interpreter of {!Netlist} circuits: the
    oracle of {!Sim}.

    This is the semantic baseline: each settle re-dispatches on the kind of
    every combinational node, with no dead-node elimination and no
    incremental re-evaluation, so it is easy to audit but slow.  Sources
    are never evaluated: constants are loaded by {!create}, inputs by
    {!set} and registers by {!step} and {!reset}.  Nothing in production
    runs on it; it exists so {!Equiv.crosscheck} can compare the simulator
    against it cycle by cycle (and [bench/main.ml] can time the two).

    One instance runs [lanes] independent simulations of the circuit in
    lockstep: each lane has its own values and its own memories, and a
    settle walks the netlist once, evaluating every lane at each node.

    Values are exchanged as OCaml [int]s in the unsigned representation of
    the node's width (width 62 uses all value bits of the host int). *)

type t

val create : ?lanes:int -> Netlist.t -> t
(** Builds evaluation tables for [lanes] lanes (default 1) and loads every
    register with its [init] value; memories start zeroed.  The circuit
    must already be valid.
    @raise Invalid_argument if [lanes < 1]. *)

val reset : t -> unit
(** Loads every register with its [init] value and zeroes the memories,
    in every lane, as {!Sim.reset} does.  Inputs keep their current
    values. *)

val set : ?lane:int -> t -> string -> int -> unit
(** [set ~lane sim port v] drives input [port] of [lane] (default 0) with
    [v] (masked to the port width; negative values are taken as two's
    complement).
    @raise Invalid_argument on an unknown input name, listing the circuit's
    input ports, or on a lane out of range. *)

val get : ?lane:int -> t -> string -> int
(** Unsigned value of an output port in [lane] (default 0), after
    settling the fabric.
    @raise Invalid_argument on an unknown output name or a lane out of
    range. *)

val step : t -> unit
(** One rising clock edge in every lane: settle, then latch all registers
    and apply enabled memory writes in declared port order (on an address
    conflict the later-declared port wins). *)

val peek : ?lane:int -> t -> Netlist.uid -> int
(** Unsigned value of an arbitrary node in [lane] (default 0), after
    settling.
    @raise Invalid_argument on a lane out of range. *)

val mem_word : ?lane:int -> t -> Netlist.mem_id -> int -> int
(** Current contents of one memory word in [lane] (default 0), for state
    cross-checks.
    @raise Invalid_argument on a lane out of range. *)
