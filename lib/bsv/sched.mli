(** Static rule scheduling (the compiler's conflict analysis).

    Two rules may fire in the same clock cycle only if the parallel
    execution (all reads see the cycle-start state, all writes land at the
    cycle end) is equivalent to {e some} sequential order of the two — the
    one-rule-at-a-time semantics BSV programs are written against.  That
    fails when they write a common register, or when each reads a register
    the other writes; chains of one-way read/write dependences across three
    or more rules are also rejected (a precedence cycle has no sequential
    witness).

    With [effort >= 2], write-write conflicts between rules whose guards
    are syntactically disjoint (equality tests of one register against
    different constants) are discharged — they can never fire together. *)

type t = {
  rules : Lang.rule array;          (** in urgency order *)
  conflict : bool array array;      (** symmetric conflict matrix *)
  precede : bool array array;
      (** [precede.(i).(j)]: when both fire, rule [i] must precede rule [j]
          in the sequential witness (i reads what j writes) *)
}

val analyze : ?options:Options.t -> Lang.modul -> t

val serial_witness : t -> fired:int list -> int list option
(** A sequential order of the fired rule indices consistent with
    [precede], or [None] if (unexpectedly) cyclic. *)
