(** IEEE Std 1180-1990 accuracy test for 8x8 IDCT implementations.

    The procedure (Annex A): generate pseudo-random sample blocks in a given
    range, push them through a double-precision forward DCT (rounded,
    clamped to 12 bits) to obtain coefficient blocks, then compare the
    implementation under test against the double-precision reference IDCT
    over many blocks, accumulating per-position error statistics. *)

type stats = {
  blocks : int;
  peak_error : int;              (** max |e| over all pixels — limit 1 *)
  worst_pmse : float;            (** worst per-position mean square error — limit 0.06 *)
  omse : float;                  (** overall mean square error — limit 0.02 *)
  worst_pme : float;             (** worst per-position |mean error| — limit 0.015 *)
  ome : float;                   (** overall |mean error| — limit 0.0015 *)
  zero_in_zero_out : bool;
}

type verdict = { passed : bool; failures : string list }

type range = { lo : int; hi : int; sign : int }
(** One test condition: inputs uniform on [lo, hi], multiplied by [sign]. *)

val standard_ranges : range list
(** The six conditions of the standard: (-256,255), (-5,5), (-300,300),
    each with sign +1 and -1. *)

val measure :
  ?blocks:int ->
  ?seed:int ->
  range ->
  (Axis.Block.t list -> Axis.Block.t list) ->
  stats
(** [measure range dut] runs [blocks] (default 10000) random blocks.  The
    dut receives the whole coefficient list in one call (and must return
    outputs in order), so a stream implementation can spread the blocks
    across simulation lanes; a per-block function [f] is [List.map f].
    The error statistics accumulate in draw order, so the verdict does
    not depend on how the dut batches its work.

    Staged: applying every argument but the dut draws the blocks and
    runs the double-precision FDCT and reference IDCT once, storing the
    coefficients and reference outputs packed.  The returned checker only
    runs the dut and accumulates the statistics; it never writes to the
    prepared data, so it may be applied to any number of duts, from any
    domain. *)

val judge : stats -> verdict

val run :
  ?blocks:int ->
  (Axis.Block.t list -> Axis.Block.t list) ->
  (range * stats * verdict) list
(** Full compliance run over {!standard_ranges}, staged like {!measure}:
    [run ~blocks] prepares all six conditions.  Each condition makes one
    [blocks]-block dut call and one single-block zero call, in the order
    of {!standard_ranges}. *)

val compliant : ?blocks:int -> (Axis.Block.t list -> Axis.Block.t list) -> bool
(** Every condition of {!run} passes.  Staged the same way, and every
    condition is run even after one fails. *)

val pp_stats : Format.formatter -> stats -> unit
