(** The kernel registration table (DESIGN.md §15).

    A kernel bundles its {!Flow.spec} (stimulus, golden reference,
    compliance procedure, timeout policy) with its CLI aliases and its
    per-tool design {!inventory}.  Fig1, Table2, comply, sweep,
    {!Dse.Space} and the serve protocol all iterate {!all}, and every
    design of every kernel lives here, in exactly one inventory.

    Three kernels are registered: the paper's IDCT (all 7 tools, the
    byte-pinned baseline artifacts, its inventories written out in this
    module), and the FIR and the blocked matmul, the two instances of
    the {!Dot_kernel} template (3 tools each, one design per tool). *)

type axis = { axis_name : string; axis_values : string list }
(** One knob of a tool's configuration space: a named, ordered, discrete
    value set.  A tool's space is a list of {e charts}, each a list of
    axes; row-major enumeration of a chart's axes (last axis fastest)
    covers a contiguous run of the tool's sweep, in order — the
    invariant {!Dse.Space} checks and builds on. *)

type inventory = {
  inv_tool : Design.tool;
  inv_initial : Design.t;
  inv_optimized : Design.t;
  inv_sweep : Design.t list;
      (** every configuration explored (the points of Fig. 1); for the
          IDCT: Verilog 3, Chisel 3, BSC 26, XLS 19, MaxCompiler 2,
          Bambu 42, Vivado HLS 5 *)
  inv_space : axis list list;
      (** [inv_sweep]'s knob space as chart data: genuine option grids
          for Bambu (preset x SDC x chaining), BSC (urgency x mux x
          aggressive x effort, behind a two-design default chart) and XLS
          (pipeline stages); a single enumerated axis for hand-picked
          ladders and one-design inventories *)
}

type t = {
  spec : Flow.spec;
  aliases : string list;  (** lower-case CLI names accepted for [--kernel] *)
  inventories : inventory list;
      (** per-tool design inventories, in the paper's column order; the
          first entry's tool anchors Table II's relative columns *)
}

val all : t list

val idct : t
(** The paper's kernel — the default wherever [--kernel] is omitted. *)

val chisel_transfo_script : string
(** The transformation script (["fold_rows; fold_cols"]) that re-derives
    the IDCT's Chisel optimized design from its flat (initial)
    architecture.  Forcing [optimized idct Chisel] replays the script
    through {!Transfo.Engine.run} — every step verified — and yields a
    netlist node-identical to the hand-written macro-pipeline ladder rung
    (DESIGN.md §17). *)

val name : t -> string
(** The kernel's canonical name: its [spec.spec_name] (also the
    store-key prefix, so per-kernel cache entries stay disjoint). *)

val spec : t -> Flow.spec

val find : string -> t option
(** Lookup by canonical [spec_name]. *)

val parse_kernel : string -> t option
(** Case-insensitive lookup by CLI alias ([--kernel], serve requests). *)

val unknown_kernel_msg : string -> string
(** ["unknown kernel \"x\" (kernels: idct, fir8, matmul8)"] — the
    diagnostic shared by the CLI and the serve request parser. *)

val tools : t -> Design.tool list
(** The tools with an inventory for this kernel, registration order. *)

val inventory : t -> Design.tool -> inventory option

val inventory_exn : t -> Design.tool -> inventory
(** @raise Invalid_argument if the kernel has no such tool, with the
    one diagnostic ["kernel K has no T designs (tools: ...)"] listing
    the tools it does have; same for the accessors below. *)

val initial : t -> Design.tool -> Design.t
val optimized : t -> Design.tool -> Design.t
val sweep : t -> Design.tool -> Design.t list
val space : t -> Design.tool -> axis list list

val delta_loc : t -> Design.tool -> int
(** The paper's [dL] (Table II "Modification dL"): lines changed (added
    + removed, options included) between the initial and optimized
    listings.  0 for a one-design inventory. *)

val all_designs : t -> Design.t list
(** Every sweep point of every tool, registration order. *)

(** {1 Back ends built once per intermediate}

    The IDCT's BSC, Bambu and Vivado HLS cells run their tool's front
    half per design point and its back half once per key of the
    intermediate the back half reads, in a table of {!Once} cells.
    Points with equal keys get the same netlist value (node array,
    memories and ports); a point served from a table adds the counter
    [shared] = 1 to its [elaborate] span.  The Bambu and Vivado HLS
    cells lower a program once per (options, program) and run
    {!Chls.Fsm.circuit} once per {!Chls.Fsm.key}, each point getting the
    netlist under its own name. *)

val bsv_compiler : string -> (unit -> Bsv.Lang.modul) -> Bsv.Options.t -> Hw.Netlist.t
(** [bsv_compiler name build]: BSC on the module [build ()], built once
    on first use (a {!Once} cell called [name]).  Each call runs
    {!Bsv.Sched.analyze} under the options, then {!Bsv.Compile.generate}
    once per {!Bsv.Compile.key}.  The result emits the same Verilog as
    [Bsv.Compile.compile ~options (build ())]. *)

val bsv_initial : Bsv.Options.t -> Hw.Netlist.t
val bsv_optimized : Bsv.Options.t -> Hw.Netlist.t
(** The IDCT's two rule modules under {!bsv_compiler}: what its BSC cells
    force. *)
