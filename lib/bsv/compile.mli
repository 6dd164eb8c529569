(** Compilation of rule modules to {!Hw.Netlist} circuits.

    For each rule the compiler materializes

    - [CAN_FIRE]  — the guard (with action conditions folded in under
      [-aggressive-conditions]);
    - [WILL_FIRE] — [CAN_FIRE] minus every higher-urgency conflicting rule
      that fires;

    and for each register a write network selecting among the firing
    writers (priority chain or one-hot, per {!Options.mux_style}).
    Module inputs/outputs become circuit ports. *)

val compile : ?options:Options.t -> Lang.modul -> Hw.Netlist.t
(** {!Sched.analyze}, then {!generate}. *)

val generate : ?options:Options.t -> Lang.modul -> Sched.t -> Hw.Netlist.t
(** The back end: the netlist of a module under a schedule of it.  It
    reads the schedule's rule order and conflict matrix, and of the
    options only [mux_style] and [aggressive_conditions]; the netlist is
    named after the module. *)

val key : ?options:Options.t -> Lang.modul -> Sched.t -> string
(** Everything {!generate} reads besides the module's contents: its
    name, the rule order (each rule's position in [m.rules]), the
    conflict matrix, [mux_style] and [aggressive_conditions].  On one
    module, equal keys give equal netlists.  [effort] and [urgency] are
    not in the key as such; what they change reaches it through the
    schedule. *)

val compile_with_schedule :
  ?options:Options.t -> Lang.modul -> Hw.Netlist.t * Sched.t
