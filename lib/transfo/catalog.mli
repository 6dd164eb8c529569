(** The transformation catalogue (DESIGN.md §17).

    Each transformation is a first-class module: a stable name (plus
    aliases, resolved like {!Core.Registry}'s tool names), a
    human-readable description and precondition, an applicability check,
    a deterministic [apply], and the {!Verify.obligation} the {!Engine}
    must discharge after the step. *)

type arg_kind =
  | No_arg
  | Int_arg of string  (** the argument's meaning, e.g. ["stages"] *)

module type TRANSFO = sig
  val name : string
  val aliases : string list
  val description : string
  val precondition : string
  val arg : arg_kind

  val check : arg:int option -> Subject.t -> (unit, string) result
  (** Validates the argument and the subject.  [apply] may assume the
      check passed. *)

  val apply : arg:int option -> Subject.t -> Subject.t
  (** Deterministic.  Updates the circuit (and, for staging
      transformations, the architecture view); netlist-level rewrites
      drop the architecture view.  May raise [Failure] /
      [Invalid_argument] on internal errors — the {!Engine} converts
      those into verification failures. *)

  val obligation : arg:int option -> Verify.obligation
end

module Retime : TRANSFO
(** [retime N] — macro-pipeline a combinational circuit into N register
    ranks ({!Hw.Pipeline.retime}). *)

module Outreg : TRANSFO
(** [outreg] — register every output of a combinational circuit. *)

module Strength_reduce : TRANSFO
(** [strength_reduce] — rewrite multiplications by a constant into a
    canonical-signed-digit ladder of shifts, adds and subtracts. *)

module Narrow : TRANSFO
(** [narrow] — backward demand analysis; shrink arithmetic to the bits
    the outputs actually consume, re-extending at the boundary. *)

module Unroll : TRANSFO
(** [unroll K] — replicate a combinational circuit K times with
    [_r<j>]-suffixed ports (loop unrolling at the spatial level). *)

module Fold_rows : TRANSFO
(** [fold_rows] — share one row unit across arriving beats
    (flat -> beat-row staging). *)

module Fold_cols : TRANSFO
(** [fold_cols] — fold the column bank into one sequential unit
    (beat-row -> row-col macro-pipeline). *)

val all : (module TRANSFO) list
(** Catalogue order; stable for [--list] and documentation. *)

val names : unit -> string list

val find : string -> (module TRANSFO) option
(** Case-insensitive lookup by name or alias. *)

val unknown_transfo_msg : string -> string
(** Mirrors {!Core.Registry.unknown_tool_msg}: names the unknown
    transformation and lists the valid ones. *)

val arg_doc : arg_kind -> string
(** [""] for {!No_arg}, [" N"] (space-prefixed placeholder) otherwise. *)
