(** AXI-Stream port conventions used by every wrapped design.

    Data is moved row-by-row: one beat carries one 8-element row.  Because
    the netlist word width is capped at 62 bits, the 96-bit TDATA bus is
    split into eight parallel lanes ([s_data0] .. [s_data7]); the pin count
    and the handshake semantics are unchanged with respect to a single
    96-bit bus.

    Slave (input) side         Master (output) side
    -------------------        --------------------
    in  [s_valid]  1           out [m_valid] 1
    out [s_ready]  1           in  [m_ready] 1
    in  [s_last]   1           out [m_last]  1
    in  [s_data]k  12 (x8)     out [m_data]k 9 (x8)

    A matrix transfer is eight beats; [*_last] marks the eighth. *)

val lanes : int
(** 8 *)

val in_width : int
(** 12 *)

val out_width : int
(** 9 *)

val s_valid : string
val s_ready : string
val s_last : string
val s_data : int -> string
val m_valid : string
val m_ready : string
val m_last : string
val m_data : int -> string

type ports = {
  s_valid : Hw.Builder.s;
  s_last : Hw.Builder.s;
  s_data : Hw.Builder.s array;
  m_ready : Hw.Builder.s;
}
(** Input-side signals of a wrapper under construction. *)

val declare_inputs : Hw.Builder.t -> ports
(** Adds the slave-side and [m_ready] input ports to a builder. *)

val expose_outputs :
  Hw.Builder.t ->
  s_ready:Hw.Builder.s ->
  m_valid:Hw.Builder.s ->
  m_last:Hw.Builder.s ->
  m_data:Hw.Builder.s array ->
  unit
(** Adds the master-side and [s_ready] output ports. *)

val is_wrapped : Hw.Netlist.t -> bool
(** True when the circuit exposes the full port convention. *)
