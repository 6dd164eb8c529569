(** Kernel-generic accuracy accounting over {!Block} streams: a
    per-position error-statistics accumulator (the arithmetic core of the
    IEEE 1180-1990 procedure, but nothing IDCT-specific: any
    block-to-block kernel can accumulate got-vs-want error surfaces with
    it).

    The accumulation order is part of the contract: blocks added in
    sequence produce bit-identical float sums whether the device under
    test ran sequentially or batched, which is what lets
    [Ieee1180.measure] hand its dut the whole block list at once and
    still give the verdict a per-block run would. *)

type t
(** A mutable accumulator over [Block.size * Block.size] positions. *)

type summary = {
  blocks : int;
  peak_error : int;  (** max |e| over all positions and blocks *)
  worst_pmse : float;  (** worst per-position mean square error *)
  omse : float;  (** overall mean square error *)
  worst_pme : float;  (** worst per-position |mean error| *)
  ome : float;  (** overall |mean error| *)
}

val create : unit -> t

val add : t -> want:Block.t -> got:Block.t -> unit
(** Accumulate one block's error surface.  Per-position sums are updated
    in position order; call order over blocks defines the float
    summation order. *)

val summarize : t -> summary
