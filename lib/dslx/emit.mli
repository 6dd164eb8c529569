(** DSLX-style source listing, generated from the same AST the compiler
    elaborates (the LOC metric counts these lines). *)

val emit : Ir.program -> string
