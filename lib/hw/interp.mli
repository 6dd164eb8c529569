(** Reference cycle-accurate interpreter of {!Netlist} circuits.

    This is the semantic baseline: it re-dispatches on every node kind on
    every evaluation pass, with no dead-node elimination and no incremental
    re-evaluation, so it is easy to audit but slow.  {!Sim} — the interface
    the rest of the system uses — delegates to the compiled engine
    ({!Compile}); this module is retained so the two can be cross-checked
    cycle-by-cycle ({!Equiv.crosscheck}) and benchmarked against each other
    ([bench/main.ml]).

    Values are exchanged as OCaml [int]s in the unsigned representation of
    the node's width (width 62 uses all value bits of the host int). *)

type t

val mask_of_width : int -> int
(** Unsigned mask of a node width: [(1 lsl w) - 1] below 62; width 62 masks
    to [max_int] (all 62 value bits of the 63-bit host int).  Shared with
    the compiled engine so the two representations are identical. *)

val create : Netlist.t -> t
(** Builds evaluation tables.  The circuit must already be valid. *)

val circuit : t -> Netlist.t

val reset : t -> unit
(** Loads every register with its [init] value and zeroes the memories.
    Inputs keep their current values (initially 0). *)

type port
(** A resolved port handle, as {!Compile.port}; valid for every
    interpreter of the circuit it was resolved on.  The interpreter has
    no batch dimension, so its accessors take no lane. *)

val in_port : t -> string -> port
(** @raise Invalid_argument on an unknown input name, listing the
    circuit's input ports. *)

val out_port : t -> string -> port
(** @raise Invalid_argument on an unknown output name. *)

val set_port : t -> port -> int -> unit
(** Drives an input (masked to the port width). *)

val get_port : t -> port -> int
(** Unsigned value of an output, after settling. *)

val set : t -> string -> int -> unit
(** [set sim port v] drives input [port] with [v] (masked to the port width;
    negative values are taken as two's complement).
    @raise Invalid_argument on an unknown input name, listing the circuit's
    input ports. *)

val get : t -> string -> int
(** Unsigned value of an output port, after settling the fabric.
    @raise Invalid_argument on an unknown output name. *)

val get_signed : t -> string -> int

val step : t -> unit
(** One rising clock edge: settle, then latch all registers and apply
    enabled memory writes in declared port order (on an address conflict
    the later-declared port wins). *)

val step_n : t -> int -> unit

val peek : t -> Netlist.uid -> int
(** Unsigned value of an arbitrary node, after settling. *)

val peek_signed : t -> Netlist.uid -> int

val cycle_count : t -> int
(** Number of {!step}s since creation or the last {!reset}. *)

val mem_word : t -> Netlist.mem_id -> int -> int
(** Current contents of one memory word (for state cross-checks). *)
