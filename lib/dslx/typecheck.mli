(** Width/type checking of {!Ir} programs.

    Verifies operand width agreement of every operator, array shapes of
    indexing/update/literals, call signatures, loop accumulator types and
    the declared return types.  Elaboration ({!Lower}) assumes a checked
    program. *)

val check_program : Ir.program -> (unit, string) result
(** Checks every function and the presence of [top]. *)
