(** Word-level netlist intermediate representation.

    A circuit is a directed graph of typed nodes.  Combinational nodes form a
    DAG; registers ({!constructor-Reg}) break cycles and are the only
    sequential elements.  Every node has a fixed bit width.  Operand widths
    are strict: arithmetic and bitwise operators require both operands to
    have the node's width (front ends insert explicit extensions).

    Circuits are produced with {!Builder} and consumed by {!Sim},
    {!Techmap}, {!Timing} and {!Verilog}. *)

type uid = int
(** Node identifier; dense, 0-based. *)

type mem_id = int
(** Memory identifier; dense, 0-based. *)

type signedness = Signed | Unsigned

type unop = Not | Neg

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl          (** logical shift left; rhs is the unsigned shift amount *)
  | Shr          (** logical shift right *)
  | Sra          (** arithmetic shift right *)
  | Eq
  | Ne
  | Lt of signedness
  | Le of signedness

type kind =
  | Input of string
  | Const of Bits.t
  | Unop of unop * uid
  | Binop of binop * uid * uid
  | Mux of uid * uid * uid
      (** [Mux (sel, t, f)]: [sel] is 1 bit wide; [t]/[f] have the node width. *)
  | Slice of uid * int * int  (** [Slice (x, hi, lo)] *)
  | Concat of uid * uid       (** high ++ low *)
  | Uext of uid               (** zero-extend to the node width *)
  | Sext of uid               (** sign-extend to the node width *)
  | Reg of { d : uid; enable : uid option; init : Bits.t }
      (** Positive-edge register with synchronous enable and reset value
          [init] (applied by simulation reset). *)
  | Mem_read of mem_id * uid
      (** Asynchronous (LUTRAM-style) read of memory [mem_id] at the given
          address; width is the memory's word width. *)

type node = { uid : uid; width : int; kind : kind; name : string option }

type write_port = { w_enable : uid; w_addr : uid; w_data : uid }

type mem = {
  mem_id : mem_id;
  mem_name : string;
  mem_size : int;                     (** number of words *)
  mem_width : int;
  mem_writes : write_port list;
      (** all writes land on the clock edge; the model assumes enabled
          writes of one cycle target distinct addresses *)
}

type t = {
  circuit_name : string;
  nodes : node array;                 (** indexed by uid *)
  mems : mem array;                   (** indexed by mem_id *)
  inputs : (string * uid) list;       (** in declaration order *)
  outputs : (string * uid) list;      (** in declaration order *)
}

val node : t -> uid -> node
val num_nodes : t -> int
val operands : node -> uid list
(** Combinational operands.  For a register this is [[]] — the [d] input is
    sequential and obtained via {!reg_inputs}. *)

val iter_edges : (uid -> uid -> unit) -> node -> unit
(** [iter_edges f nd] is [f nd.uid o] for each [o] of [operands nd], in
    order, without building the list. *)

val reg_uids : t -> uid array
(** The registers' uids, ascending. *)

val reg_inputs : node -> uid list
(** [d] and optional [enable] for a register, [[]] otherwise. *)

val is_reg : node -> bool

val find_input : t -> string -> uid
(** @raise Not_found if no input port has the given name. *)

val find_output : t -> string -> uid

val port_error : t -> [ `In | `Out ] -> caller:string -> string -> 'a
(** [port_error t dir ~caller name] raises [Invalid_argument] with a message
    naming the missing port and listing the ports the circuit does have.
    Shared by the simulation engines' [set]/[get] lookups. *)

val validate : t -> unit
(** Checks widths, operand references and the absence of combinational
    cycles.  @raise Failure with a diagnostic on an ill-formed circuit. *)

val comb_order : t -> uid array
(** Topological order of all nodes for combinational evaluation (registers
    appear as sources; their [d] operands are not considered edges).
    @raise Failure on a combinational cycle. *)

val stats : t -> (string * int) list
(** Node-kind histogram, for reports and debugging. *)

val pp_kind : Format.formatter -> kind -> unit
val binop_name : binop -> string
