(** The pluggable search strategies of the DSE engine.

    - [Exhaustive]: every candidate, in sweep order (budget caps the
      prefix) — the strategy whose frontier must reproduce Fig. 1's
      Pareto-optimal subset exactly.
    - [Random]: a seeded Fisher–Yates permutation of the whole space,
      evaluated up to the budget — sampling without replacement, so no
      budget is wasted on revisits.
    - [Hillclimb]: seeded multi-restart neighborhood ascent on the
      chosen objective (±1 on one axis per move), restarting from the
      next unvisited point of the seeded permutation until the budget is
      spent.

    All three are deterministic functions of (space, seed, budget,
    objective): no wall clock, no global RNG ({!Rng}). *)

type t = Exhaustive | Random | Hillclimb

val to_string : t -> string

val parse : string -> (t, string) result
(** Case-insensitive; an unknown name lists the valid strategies. *)
