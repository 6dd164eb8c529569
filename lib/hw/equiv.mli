(** Random-simulation equivalence checking.

    Drives two circuits with identical pseudo-random input streams for a
    number of clock cycles and compares every output each cycle.  This is
    the workhorse behind the emit/parse round-trip tests and the
    transformation-validation tests (pipelining, stamping, option
    sweeps).  {!crosscheck} is the library's only use of the reference
    interpreter {!Interp}, the oracle of the simulator {!Sim}. *)

type result = Equivalent | Mismatch of { cycle : int; port : string; a : int; b : int }

val check : ?cycles:int -> ?seed:int -> Netlist.t -> Netlist.t -> result
(** The circuits must have identical input and output port names/widths;
    outputs are compared from the first cycle on.  Stimulus covers the full
    port width: draws wider than 30 bits are composed from several 30-bit
    chunks, so high bits of wide datapaths are exercised too.
    @raise Invalid_argument on port mismatches. *)

val crosscheck :
  ?cycles:int -> ?seed:int -> ?lanes:int -> Netlist.t -> result
(** Drives ONE simulator instance ({!Sim}) with [lanes] lanes (default
    1) against one reference interpreter ({!Interp}) with [lanes] lanes,
    each lane fed its own pseudo-random stream (including
    all-ones and sign-bit extremes at every width).  A seeded schedule
    mixes the activity: on a quarter of the cycles no input changes, on
    another quarter one lane's inputs are redrawn, on the rest every
    lane's; at cycle [cycles / 2] the simulator is {!Sim.reset} and the
    interpreter {!Interp.reset} (inputs held).  Outputs and register
    state are compared every cycle; at the end every node value
    (exercising the levelized engine's dead-node fallback) and every
    memory word is compared.  Several lanes also catch per-lane state
    bugs (cross-lane bleed in values, registers or memories).  The
    interpreter is the reference [a]; mismatch labels name the output
    port, ["reg n<uid>"], ["n<uid>"] or ["<mem>[<addr>]"], with
    [" [lane <l>]"] appended when [lanes > 1].
    @raise Invalid_argument if [lanes < 1]. *)

val pp_result : Format.formatter -> result -> unit
