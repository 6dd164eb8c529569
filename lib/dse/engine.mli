(** The search orchestrator: drives candidates through the staged
    measurement pipeline on the domain pool and accumulates the Pareto
    frontier of the explored cloud.

    Every candidate is evaluated with {!Core.Evaluate} at the Fig. 1
    stream length (3 matrices), so the process-wide memo cache is shared
    with the fig1/sweep artifacts and revisits are free.  Measurement
    results are deterministic, and batches are mapped with
    order-preserving pool primitives, so a run is bit-identical for any
    [--jobs] count; with a fixed seed it is bit-identical across
    repeats.

    Failures are values: a broken point is recorded in
    [res_evaluated] as its typed {!Core.Flow.error}, scores as unusable
    for the climb and never reaches the frontier; {!run} never raises on
    one.  Whether a failed search is reported is the caller's choice. *)

type objective = Quality | Throughput | Area

val parse_objective : string -> (objective, string) result
val objective_name : objective -> string

val score : objective -> Core.Metrics.measured -> float
(** Scalar the hillclimb maximizes: [Q = P/A], [P], or [-A]. *)

type evaluated = {
  ev_candidate : Space.candidate;
  ev_outcome : (Core.Metrics.measured, Core.Flow.error) result;
}

type stats = {
  st_space : int;       (** candidates in the searched space *)
  st_evaluated : int;   (** distinct candidates measured this run *)
  st_cache_hits : int;  (** of those, already memoized before this run *)
  st_rounds : int;      (** evaluation batches issued *)
  st_failures : int;
  st_frontier : int;
}

type result = {
  res_strategy : Strategy.t;
  res_objective : objective;
  res_seed : int;
  res_budget : int option;
  res_spaces : Space.t list;
  res_evaluated : evaluated list;  (** evaluation order, no duplicates *)
  res_frontier : Pareto.point list;  (** canonical Pareto order *)
  res_stats : stats;
}

val point_of : Space.candidate -> Core.Metrics.measured -> Pareto.point

val run :
  ?jobs:int ->
  ?budget:int ->
  ?seed:int ->
  strategy:Strategy.t ->
  objective:objective ->
  Space.t list ->
  result
(** Search the given spaces (default seed 0; no budget = the whole
    space).  Each evaluation round runs inside a ["dse"/"round"]
    {!Core.Trace} span with [evaluated]/[cache_hit] counters, under a
    ["dse"/"search"] root span carrying the final [frontier_size]. *)
