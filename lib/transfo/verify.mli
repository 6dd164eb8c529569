(** Per-step verification obligations (DESIGN.md §17).

    Every transformation declares {e how} its result must relate to its
    input; the {!Engine} discharges that obligation right after the
    step, then additionally runs {!Hw.Equiv.crosscheck} (at batch 1 and
    batched) on the result so the levelized engine is also checked
    against the reference interpreter on the transformed circuit. *)

type obligation =
  | Cycle_exact
      (** identical ports, identical output stream every cycle
          ({!Hw.Equiv.check}) *)
  | Delayed of int
      (** identical ports; the result's outputs reproduce the input
          circuit's outputs shifted by N cycles (retime, outreg) *)
  | Replicated of int
      (** the result holds N independent port-suffixed copies; every
          lane must match the original under its own stimulus *)
  | Stream_blocks
      (** architectures differ cycle-for-cycle; equality is
          block-for-block through the {!Axis.Driver} stream testbench,
          and an AXI-Stream violation of either side fails it *)

val obligation_name : obligation -> string

val discharge :
  ?cycles:int ->
  ?seed:int ->
  ?blocks:int ->
  obligation ->
  before:Subject.t ->
  after:Subject.t ->
  (unit, string) result
(** Random-stimulus discharge: [cycles] (default 256) clock cycles of
    full-width random inputs for the cycle-level obligations, [blocks]
    (default 4) random matrices through the stream testbench for
    {!constructor-Stream_blocks}.  The error carries the first
    mismatching port/cycle (or block/element). *)
