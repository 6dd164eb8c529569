(** Tool profiles: Bambu and Vivado HLS on top of the common HLS flow.

    Both consume the same C program ({!Idct_c}); they differ exactly where
    the paper says they do:

    - {b Bambu} cannot generate a stream interface, so the AXI adapter is
      the hand-written deserializer/serializer ({!io_load_regions} /
      {!io_store_regions}, the equivalent of the paper's Verilog adapter)
      in front of the sequential FSM.  Its option space — experimental
      presets, memory channel types, speculative SDC scheduling, chaining
      effort — maps to the {!Schedule.config} grid (42 configurations).
    - {b Vivado HLS} is driven by pragmas.  Push-button mode keeps the
      functions as separate communicating units (call-boundary
      synchronization states) and memories unpartitioned; the optimized
      mode (INLINE + ARRAY_PARTITION + PIPELINE, the paper's source
      change) unrolls everything into a dataflow kernel that is retimed to
      the clock target and wrapped in the auto-generated AXI-Stream
      interface. *)

type bambu_config = {
  preset : string;     (** BAMBU, AREA, AREA-MP, BALANCED, BALANCED-MP,
                           PERFORMANCE, PERFORMANCE-MP *)
  sdc : bool;          (** speculative SDC scheduling *)
  chain_effort : int;  (** 0, 1, 2 — operation-chaining effort *)
}

val bambu_grid : bambu_config list
(** The 42-point grid (7 presets x 2 x 3). *)

val bambu_initial : bambu_config
(** BAMBU preset, no SDC, default chaining — the paper's starting point
    (MEM_ACC_11, LSS allocation). *)

val bambu_optimized : bambu_config
(** PERFORMANCE-MP with speculative SDC — the paper's best quality. *)

val describe_bambu : bambu_config -> string
val bambu_circuit : ?name:string -> bambu_config -> Hw.Netlist.t

type vhls_config = {
  inline : bool;           (** #pragma HLS INLINE on the passes *)
  partition : bool;        (** #pragma HLS ARRAY_PARTITION complete *)
  pipeline : int;
      (** #pragma HLS PIPELINE: 0 = off, 8 = II=8 (time-shared row/column
          units), 1 = II=1 (fully parallel dataflow) *)
}

val vhls_initial : vhls_config
(** Push-button: everything off. *)

val vhls_optimized : vhls_config
(** All pragmas on. *)

val vhls_ladder : vhls_config list
(** The pragma ladder explored for the DSE figure. *)

val describe_vhls : vhls_config -> string
val vhls_circuit : ?name:string -> vhls_config -> Hw.Netlist.t

val vhls_clock_target_ns : float
val vhls_pragmas : vhls_config -> string list
(** Pragma source lines (counted by the LOC metric). *)

(** {1 Building blocks} *)

val io_load_regions : ?par:int -> string -> Transform.region list
(** Deserializer: 8 beats into the given top array; [par] elements are
    written per cycle (bounded by the memory's write ports). *)

val io_store_regions : ?par:int -> string -> Transform.region list
val io_vars : (string * Ast.ctype) list
(** [__in*], [__out*], [__tmp*] and the I/O loop counters. *)

val sequential_circuit :
  name:string ->
  Schedule.config ->
  Transform.options ->
  Ast.program ->
  Hw.Netlist.t
(** Full sequential flow: lower, wrap with I/O regions, schedule, FSM. *)

val dataflow_circuit :
  name:string -> clock_ns:float -> Ast.program -> Hw.Netlist.t * int
(** Fully-unrolled pipelined flow (PIPELINE pragma); returns the circuit
    and the pipeline depth. *)

val pass_unit :
  Ast.program -> string -> out_width:int -> Axis.Adapter.lane_fn
(** Symbolically execute an in-place single-array function (like
    [idct_row]) into a combinational functional unit — the building block
    the II=8 pipeline shares, also usable to mix C-derived units with other
    front ends' hardware. *)
