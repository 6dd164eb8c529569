(** Fixed-width two's-complement bit vectors.

    A value of type {!t} is a bit vector of a given [width] (1 to 62 bits).
    The payload is stored as a non-negative OCaml [int] whose bits above
    [width] are zero.  Arithmetic wraps modulo [2^width]; signed views
    interpret the top bit as the sign. *)

type t = private { value : int; width : int }

val max_width : int
(** Largest supported width (62, so every vector fits an OCaml [int]). *)

val mask : int -> int
(** Unsigned mask of a width: [(1 lsl w) - 1] below 62; width 62 masks
    to [max_int] (all 62 value bits of the 63-bit host int).  Both
    simulators mask node values with it. *)

val create : width:int -> int -> t
(** [create ~width v] masks [v] to [width] bits.  Negative [v] is taken as
    two's complement.  @raise Invalid_argument on widths outside [1..62]. *)

val zero : int -> t
(** [zero width] is the all-zeros vector. *)

val one : int -> t
(** [one width] is the vector with value 1. *)

val ones : int -> t
(** [ones width] is the all-ones vector. *)

val width : t -> int
val to_int : t -> int
(** Unsigned value in [0, 2^width). *)

val to_signed_int : t -> int
(** Signed (two's-complement) value in [-2^(width-1), 2^(width-1)). *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (LSB is bit 0). *)

val msb : t -> bool

(** {1 Arithmetic} — operands must share a width; results keep it. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(** {1 Bitwise} *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** {1 Shifts} — shift amount from the unsigned value of the second operand. *)

val shift_left : t -> t -> t
val shift_right_logical : t -> t -> t
val shift_right_arith : t -> t -> t

(** {1 Comparisons} — results are 1-bit vectors. *)

val eq : t -> t -> t
val ne : t -> t -> t
val lt : signed:bool -> t -> t -> t
val le : signed:bool -> t -> t -> t

(** {1 Structure} *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] extracts bits [hi..lo] as a vector of width
    [hi - lo + 1]. *)

val concat : t -> t -> t
(** [concat hi lo] has [hi] in the upper bits. *)

val uext : t -> int -> t
(** [uext v w] zero-extends (or truncates) to width [w]. *)

val sext : t -> int -> t
(** [sext v w] sign-extends (or truncates) to width [w]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Prints as [width'dvalue] (e.g. [8'd255]). *)

val to_string : t -> string

val width_for_signed_range : int -> int -> int
(** [width_for_signed_range lo hi] is the smallest width whose signed range
    contains both bounds. *)
