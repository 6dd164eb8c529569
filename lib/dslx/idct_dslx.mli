(** The IDCT benchmark in the DSLX-like IR, adapted (as the paper did with
    the XLS example) to 12-bit inputs and 9-bit outputs. *)

val program : Ir.program
(** Functions [row_pass], [col_pass] and top [idct] (64 coefficients in,
    64 samples out). *)

val kernel_circuit : unit -> Hw.Netlist.t
(** Elaborated combinational kernel (ports [m_0..m_63] / [out_0..out_63]). *)

val design :
  ?stages:int -> kernel:Hw.Netlist.t -> name:string -> unit -> Hw.Netlist.t
(** Complete AXI-Stream design.  [stages = 0] (default) is the
    combinational circuit; [stages = n > 0] pipelines the kernel into [n]
    ranks — XLS's one knob, swept for the paper's 19 configurations.
    [kernel] is the {!kernel_circuit}, lowered once and shared by every
    point. *)
