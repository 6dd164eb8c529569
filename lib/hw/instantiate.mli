(** Stamping one circuit into another (module instantiation).

    Copies every node of the instanced circuit into the target builder,
    substituting the given signals for its input ports.  Registers are
    recreated with their own enables, so stamping a sequential circuit
    yields an independent instance. *)

val stamp :
  Builder.t ->
  Netlist.t ->
  inputs:(string * Builder.s) list ->
  (string * Builder.s) list
(** Returns the instance's outputs.  @raise Failure on a missing or
    width-mismatched input binding. *)
