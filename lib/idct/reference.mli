(** Double-precision 8x8 DCT-II / DCT-III (IDCT) reference.

    This is the accuracy yardstick of IEEE 1180-1990: the separable
    cosine-basis transform evaluated in double precision, with outputs
    rounded to the nearest integer and clamped to the 9-bit sample range.
    Both directions evaluate the literal quadruple sum over the cosine
    basis, term by term in a fixed order, so every result is
    bit-reproducible. *)

val idct_exact : Axis.Block.t -> float array
(** Unrounded inverse transform of a coefficient block. *)

val idct : Axis.Block.t -> Axis.Block.t
(** Reference IDCT: the unrounded inverse transform of a coefficient
    block, rounded to nearest, clamped to [-256, 255]. *)

val fdct_exact : Axis.Block.t -> float array
(** Unrounded forward transform of a sample block. *)

val fdct : Axis.Block.t -> Axis.Block.t
(** Forward DCT rounded to nearest and clamped to the 12-bit coefficient
    range — used by the IEEE 1180 procedure to produce test coefficients. *)
