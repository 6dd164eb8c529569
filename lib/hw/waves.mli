(** VCD (IEEE 1364 value-change-dump) waveform recording.

    Attach a recorder to a simulator, step the clock through {!step}, and
    write the trace for any VCD viewer (GTKWave etc.).  Only named nodes
    and ports are recorded by default; [all_nodes] records everything. *)

type t

val create : ?all_nodes:bool -> Sim.t -> t
(** Snapshots are taken from the given simulator; ports and named nodes
    (registers, labelled signals) are traced. *)

val step : t -> unit
(** Advance the underlying simulator one clock edge and record the new
    values. *)

val run : t -> int -> unit

val to_string : t -> string
(** The complete VCD document for the recorded window. *)
