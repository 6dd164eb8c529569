(** The configuration-space model behind the search (DESIGN.md §12).

    Every registered tool exposes its knob space as data
    ({!Core.Kernel.axis}): a list of {e charts}, each the product of a
    few named discrete axes.  This module binds those axes back to the
    tool's canonical design inventory — candidate [(chart, coords)]
    resolves to the very same {!Core.Design.t} value the Fig. 1 sweep
    measures, so the memoized evaluation cache is shared and an
    exhaustive enumeration reproduces the paper's sweep point for
    point. *)

type chart = {
  chart_axes : Core.Kernel.axis list;
  chart_designs : Core.Design.t array;
      (** the sweep slice this chart covers, in row-major axis order
          (last axis fastest) *)
}

type t = {
  tool : Core.Design.tool;
  charts : chart list;
  spec : Core.Flow.spec;  (** the kernel this space's designs implement *)
}

type candidate = {
  cand_tool : Core.Design.tool;
  cand_chart : int;          (** chart index within the tool's space *)
  cand_coords : int array;   (** one value index per chart axis *)
  cand_axes : Core.Kernel.axis list;  (** the chart's own axes *)
  cand_design : Core.Design.t;
}

val of_tool : ?kernel:Core.Kernel.t -> Core.Design.tool -> t
(** Bind the kernel's space charts ({!Core.Kernel.space}) to its sweep
    ([kernel] defaults to the paper's IDCT).
    @raise Invalid_argument if the declared axis products do not tile the
    sweep exactly — the registry invariant a misdeclared space breaks —
    or if the kernel has no inventory for [tool]. *)

val with_scripts : t -> t
(** Extend the space with a transformation-sequence axis (DESIGN.md
    §17): one extra chart whose single ["script"] axis enumerates
    [(none)] plus the cycle-exact netlist rewrites ["strength_reduce"],
    ["narrow"] and their composition, each a {!Transfo.Script} applied
    to the tool's [initial] design.  Derived designs force through
    {!Transfo.Engine.run}, so every candidate the search can visit is
    equivalence-verified at force time.  Tools without an [initial] stream design (PCIe-only
    inventories) are returned unchanged. *)

val size : t -> int
(** Number of candidates (= length of the tool's sweep). *)

val candidates : t -> candidate list
(** Full enumeration, in sweep order (charts in order, row-major within
    each chart). *)

val neighbors : t -> candidate -> candidate list
(** The hillclimb neighborhood: candidates differing by exactly ±1 on
    exactly one axis, within the same chart.  Deterministic order: axis
    by axis, minus before plus. *)

val key : candidate -> string
(** The candidate's stable identity, ["Tool/label"] (= {!Core.Flow.span_key}
    of its design). *)

val coords_desc : candidate -> string
(** Human-readable coordinates, e.g. ["preset=AREA speculative-sdc=on
    chaining-effort=1"]. *)

val describe : t -> string
(** The space as data: one line per chart listing its axes, value counts
    and chart size. *)
