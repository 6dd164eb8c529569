(** Rendering and cross-checking of a DSE run.

    The ASCII report mirrors the Fig. 1 scatter — same log-log axes, same
    per-tool glyphs — with the Pareto frontier overlaid as [*] and listed
    as a table, so an exploration and the paper's figure can be read side
    by side. *)

val render : Engine.result -> string
(** Search header (strategy/seed/budget/objective), the searched spaces
    as data, the explored cloud with the frontier marked, the frontier
    table and the stats line. *)

val write_json : string -> Engine.result -> unit
(** Machine-readable run record (strategy, seed, budget, objective,
    every evaluated point with its frontier membership, failures, stats)
    written atomically via {!Core.Trace.write_atomic}. *)

val crosscheck_fig1 :
  ?jobs:int ->
  ?tools:Core.Design.tool list ->
  ?kernel:Core.Kernel.t ->
  Engine.result ->
  (string, string) result
(** The Fig. 1 cross-check: the frontier of an exhaustive run over the
    paper's sweep space must equal, point for point, the Pareto-optimal
    subset of {!Core.Fig1.compute}'s point set.  [Ok] carries a one-line
    PASS message; [Error] carries the point-by-point diff. *)
