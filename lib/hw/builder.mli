(** Imperative construction of {!Netlist} circuits.

    A builder accumulates nodes; pure (combinational) nodes are hash-consed,
    so structurally identical expressions share hardware.  Registers are
    created first and their data input connected later, which is how
    feedback loops are described:

    {[
      let b = Builder.create "counter" in
      let q = Builder.reg b ~width:8 "q" in
      Builder.connect b q (Builder.add b q (Builder.const b ~width:8 1));
      Builder.output b "count" q;
      let circuit = Builder.finalize b
    ]} *)

type t
type s
(** A signal: a handle to a node, carrying its width. *)

val create : string -> t
val width : s -> int
val uid : s -> Netlist.uid

val signal : t -> Netlist.uid -> s
(** The signal of a node this builder has already made, by its uid. *)

(** {1 Sources} *)

val input : t -> string -> int -> s
val const : t -> width:int -> int -> s
val constb : t -> Bits.t -> s
val zero : t -> int -> s
val one : t -> int -> s

(** {1 Operators} — operand widths must match (see {!Netlist}). *)

val add : t -> s -> s -> s
val sub : t -> s -> s -> s
val mul : t -> s -> s -> s
val neg : t -> s -> s
val not_ : t -> s -> s
val and_ : t -> s -> s -> s
val or_ : t -> s -> s -> s
val xor_ : t -> s -> s -> s

val shl : t -> s -> s -> s
val shr : t -> s -> s -> s
val sra : t -> s -> s -> s

val shl_const : t -> s -> int -> s
(** Shift by a constant amount, implemented as slice+concat (free wiring). *)

val shr_const : t -> s -> int -> s
val sra_const : t -> s -> int -> s

val eq : t -> s -> s -> s
val ne : t -> s -> s -> s
val lt : t -> signed:bool -> s -> s -> s
val le : t -> signed:bool -> s -> s -> s
val gt : t -> signed:bool -> s -> s -> s
val ge : t -> signed:bool -> s -> s -> s

val binop : t -> Netlist.binop -> s -> s -> s
(** The operator above that builds the given netlist binop
    ([binop b (Lt Signed)] is [lt b ~signed:true], and so on). *)

val mux : t -> s -> s -> s -> s
(** [mux b sel t f]. *)

val mux_list : t -> s -> s list -> s
(** [mux_list b sel cases] selects [cases.(sel)] via a balanced tree; the
    list length need not be a power of two (out-of-range selects return the
    last case). *)

val slice : t -> s -> hi:int -> lo:int -> s
val bit : t -> s -> int -> s
val concat : t -> s -> s -> s
(** [concat b hi lo]. *)

val concat_list : t -> s list -> s
(** Concatenates with the head as the most significant part. *)

val uext : t -> s -> int -> s
(** Zero-extend to the given width; truncates if narrower (via slice). *)

val sext : t -> s -> int -> s

(** {1 State} *)

val reg : t -> ?enable:s -> ?init:int -> width:int -> string -> s
(** Declares a register and returns its output; {!connect} its input later.
    @raise Failure at {!finalize} time if a register was never connected. *)

val connect : t -> s -> s -> unit
(** [connect b q d] sets register [q]'s data input to [d]. *)

val reg_next : t -> ?enable:s -> ?init:int -> ?name:string -> s -> s
(** One-liner for a pipeline register whose input is already known. *)

(** {1 Memories} *)

type mem_handle

val mem : t -> string -> size:int -> width:int -> mem_handle
(** Declares a word-addressed memory (LUTRAM-style: asynchronous reads,
    clocked writes). *)

val mem_addr_width : mem_handle -> int

val mem_read : t -> mem_handle -> s -> s
(** Asynchronous read; the address must have exactly the memory's address
    width. *)

val mem_write : t -> mem_handle -> enable:s -> addr:s -> data:s -> unit
(** Adds a write port (applied on the clock edge when [enable] is high).
    Simultaneously enabled writes must target distinct addresses. *)

(** {1 Naming and completion} *)

val output : t -> string -> s -> unit
val name : t -> s -> string -> s
(** Attaches a debug/emission name to the node; returns the same signal. *)

val finalize : t -> Netlist.t
(** Validates and returns the finished circuit. *)
