(** Streaming dataflow kernels (the repository's MaxJ/MaxCompiler
    stand-in).

    A kernel describes the computation applied to data streams on every
    tick; kernels are feed-forward (no state).  Compilation
    deep-pipelines them to the compiler's target clock
    period, the behaviour the paper observes (47-stage pipeline at
    403 MHz).  The LOC metric does not read kernels: it counts the curated
    MaxJ listings of [Core.Listings]. *)

type t
type stream

val create : string -> t
val input : t -> string -> int -> stream
val const : t -> width:int -> int -> stream
val add : t -> stream -> stream -> stream
val sub : t -> stream -> stream -> stream
val mulc : t -> int -> stream -> stream
(** Multiplication by a compile-time constant (DSP-friendly). *)

val shl : t -> stream -> int -> stream
val asr_ : t -> stream -> int -> stream
val cast : t -> stream -> int -> stream
(** Signed resize. *)

val clamp : t -> lo:int -> hi:int -> stream -> stream
val mux : t -> stream -> stream -> stream -> stream

val output : t -> string -> stream -> unit

val finalize : t -> Hw.Netlist.t
(** Retimes the kernel to the compiler's target clock.  Returns the
    kernel circuit (plain ports, no AXI). *)

val pipeline_depth : Hw.Netlist.t -> int
(** Register ranks between inputs and outputs (the kernel latency). *)
