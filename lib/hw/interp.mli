(** Reference cycle-accurate interpreter of {!Netlist} circuits: the
    oracle of {!Sim}.

    This is the semantic baseline: it re-dispatches on every node kind on
    every evaluation pass, with no dead-node elimination and no incremental
    re-evaluation, so it is easy to audit but slow.  Nothing in production
    runs on it; it exists so {!Equiv.crosscheck} can compare the simulator
    against it cycle by cycle (and [bench/main.ml] can time the two).

    Values are exchanged as OCaml [int]s in the unsigned representation of
    the node's width (width 62 uses all value bits of the host int). *)

type t

val create : Netlist.t -> t
(** Builds evaluation tables and loads every register with its [init]
    value; memories start zeroed.  The circuit must already be valid. *)

val set : t -> string -> int -> unit
(** [set sim port v] drives input [port] with [v] (masked to the port width;
    negative values are taken as two's complement).
    @raise Invalid_argument on an unknown input name, listing the circuit's
    input ports. *)

val get : t -> string -> int
(** Unsigned value of an output port, after settling the fabric.
    @raise Invalid_argument on an unknown output name. *)

val step : t -> unit
(** One rising clock edge: settle, then latch all registers and apply
    enabled memory writes in declared port order (on an address conflict
    the later-declared port wins). *)

val peek : t -> Netlist.uid -> int
(** Unsigned value of an arbitrary node, after settling. *)

val mem_word : t -> Netlist.mem_id -> int -> int
(** Current contents of one memory word (for state cross-checks). *)
