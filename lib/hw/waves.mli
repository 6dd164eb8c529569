(** VCD (IEEE 1364 value-change-dump) waveform recording.

    Attach a recorder to a simulator, step the clock through {!step}, and
    write the trace for any VCD viewer (GTKWave etc.).  Named nodes and
    output ports are recorded; a named node the simulator eliminated
    from its schedule is read through {!Sim.peek}'s on-demand path. *)

type t

val create : Sim.t -> t
(** Snapshots are taken from the given simulator; output ports and named
    nodes (registers, labelled signals) are traced, each name once. *)

val step : t -> unit
(** Advance the underlying simulator one clock edge and record the new
    values. *)

val run : t -> int -> unit

val to_string : t -> string
(** The complete VCD document for the recorded window. *)
