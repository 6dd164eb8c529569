(** A rule-based hardware description language (the repository's Bluespec
    SystemVerilog stand-in).

    A module is a set of registers plus {e guarded atomic rules}: each rule
    has a boolean guard and a set of conditional register updates.  The
    reference semantics ({!Semantics}) executes one rule at a time; the
    compiler ({!Compile}) schedules several compatible rules per clock
    cycle, like the Bluespec Compiler.

    Expressions are signed-agnostic bit vectors; widths are explicit and
    checked by {!infer_width}.

    An expression is a DAG: a [let]-bound subexpression used by several
    parents is one node, and a deep datapath can share a handful of nodes
    exponentially many times over.  Every elaboration walk ({!validate},
    {!read_set}, {!Compile}) keys on node identity ({!memo}), so it visits
    each distinct node once.  Only the reference {!Semantics} evaluates
    the tree. *)

type expr = private { id : int; node : node }
(** [id] is unique to the node: the constructors below draw it from a
    process-wide counter, so tables keyed by it hash in O(1) and never
    confuse two structurally equal nodes. *)

and node =
  | Const of Hw.Bits.t
  | Read of reg
  | In of string * int            (** module input port *)
  | Unop of Hw.Netlist.unop * expr
  | Binop of Hw.Netlist.binop * expr * expr
  | Mux of expr * expr * expr
  | Slice of expr * int * int
  | Uext of expr * int
  | Sext of expr * int

and reg = { rid : int; rname : string; rwidth : int; rinit : int }

type action = {
  target : reg;
  when_ : expr option;            (** extra enable, beyond the rule guard *)
  value : expr;
}

type rule = private {
  rule_name : string;
  guard : expr;
  actions : action list;
  reads : int list;   (** {!read_set}, computed by {!mk_rule} *)
  writes : int list;  (** {!write_set}, computed by {!mk_rule} *)
}

type modul = {
  mod_name : string;
  inputs : (string * int) list;
  regs : reg list;
  rules : rule list;              (** in descending urgency order *)
  outputs : (string * expr) list;
}

val memo : ((expr -> 'a) -> expr -> 'a) -> expr -> 'a
(** [memo f] is the walk [self] with [self e = f self e], computed at most
    once per distinct node: later visits return the first result.  One
    [memo f] value shares its table across every root it is applied to.
    A raising [f] records nothing. *)

val infer_width : expr -> int
(** @raise Failure on operand width mismatches (the language's type
    check). *)

val width : expr -> int
(** The width of a well-typed expression, without the check: it follows
    one operand per node, so it costs the depth of that path, not the
    size of the expression. *)

val validate : modul -> unit
(** Checks widths of every rule, action and output, uniqueness of register
    ids and rule names, and that no rule writes one register twice (a rule
    is an atomic action). *)

val read_set : rule -> int list
(** Ids of registers the rule's guard, conditions or values read,
    ascending and without duplicates. *)

val write_set : rule -> int list
(** Ids of registers the rule may write, ascending and without
    duplicates. *)

(** {1 Construction helpers} *)

type builder

val builder : string -> builder
val mk_reg : builder -> ?init:int -> string -> int -> reg
val mk_input : builder -> string -> int -> expr
val mk_rule : builder -> string -> guard:expr -> action list -> unit
val mk_output : builder -> string -> expr -> unit
val mk_module : builder -> modul
(** Runs {!validate}. *)

(** {1 Expression sugar} — one smart constructor per node kind. *)

val read : reg -> expr
val unop : Hw.Netlist.unop -> expr -> expr
val binop : Hw.Netlist.binop -> expr -> expr -> expr
val mux : expr -> expr -> expr -> expr
val slice : expr -> int -> int -> expr
(** [slice e hi lo]. *)

val uext : expr -> int -> expr
val sext : expr -> int -> expr

val cst : int -> int -> expr
(** [cst width v]. *)

val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val not_ : expr -> expr
val ( ==: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( +: ) : expr -> expr -> expr
(** Same-width wrap-around addition (BSV semantics). *)

val ( -: ) : expr -> expr -> expr
val assign : ?when_:expr -> reg -> expr -> action
