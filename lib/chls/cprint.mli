(** C source listing, generated from the same AST the HLS flow compiles
    (the LOC metric counts these lines). *)

val expr_to_string : Ast.expr -> string
val emit : ?pragmas:(string * string list) list -> Ast.program -> string
(** [pragmas] maps function names to pragma lines printed at the top of
    the function body (Vivado HLS style). *)

val stmt_strings : Ast.stmt -> string list
(** Rendered lines of one statement (for diagnostics). *)
