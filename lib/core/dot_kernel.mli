(** The extension kernels, written once: a dot-product template.

    The paper's conclusion cautions that its results "cannot be easily
    extrapolated to more complex benchmarks"; the extension kernels probe
    that with computational shapes other than the IDCT's butterflies.
    Both are one family over the 64-sample block,

    {v out[i] = clip9((sum_{k<8} w(i,k) * x[idx(i,k)]) >> s) v}

    and this module is its generator: the C program, the DSLX program,
    the Chisel-style eDSL circuit, the software reference, the
    {!Flow.spec} and the {!Design.t} points are built here for any
    instance.  An instance supplies only its weight and index terms for
    each front end, the shift, the stimulus seed, the testbench budget,
    its name and the curated Chisel listing.

    Two instances are registered ({!Kernel}):
    - {!fir}: an 8-tap symmetric circular FIR, [w(i,k) = taps.(k)],
      [idx(i,k) = (i - k) land 63], [>> 6];
    - {!matmul}: the block as an 8x8 matrix X times a fixed weight
      matrix W, [w(i,k) = ((3k + 5(i land 7)) land 7) - 3],
      [idx(i,k) = (i land 56) + k], [>> 5].  The weights come from
      index arithmetic, so the rolled HLS loops need no coefficient
      ROM; |X| <= 2048 and |w| <= 4 keep the 32-bit accumulators far
      from overflow. *)

type t = {
  name : string;  (** the kernel's [spec_name], e.g. ["fir8"] *)
  top : string;
      (** the C and DSLX top function, the designs' label and the prefix
          of their circuit names *)
  weight : int -> int -> int;  (** [w i k] *)
  index : int -> int -> int;  (** [idx i k] *)
  c_weight : int -> Chls.Ast.expr;
      (** [w(i,k)] for a static [k], over the C loop variable ["i"] *)
  c_index : int -> Chls.Ast.expr;
  dslx_weight : int -> Dslx.Ir.expr;
      (** the same terms over the DSLX fold variable ["i"] (cast to a
          signal wherever it is data) *)
  dslx_index : int -> Dslx.Ir.expr;
  shift : int;  (** [s] *)
  seed : int;  (** stimulus seed for raw 12-bit sample blocks *)
  timeout : int;
      (** testbench cycle budget: the rolled HLS schedule is
          memory-bound *)
  chisel_listing : string;
      (** the curated Chisel source the eDSL generator stands for *)
}

val fir : t
val matmul : t

val taps : int array
(** The FIR's taps, [1 3 8 20 20 8 3 1]. *)

val reference : t -> Axis.Block.t -> Axis.Block.t
(** Software model (the ground truth for every front end). *)

val c_program : t -> Chls.Ast.program
(** The kernel in C (rolled loop over a snapshot of the input). *)

val dslx_program : t -> Dslx.Ir.program
(** The kernel in the DSLX IR (one counted fold over the outputs). *)

val chisel_design : t -> name:string -> Hw.Netlist.t
(** Generated with the construction eDSL behind the matrix adapter:
    per-output constant weights, minimal-width [mulc] datapaths. *)

val c_design : t -> name:string -> Hw.Netlist.t
(** Sequential HLS flow (Bambu-style defaults). *)

val dslx_design : t -> ?stages:int -> name:string -> unit -> Hw.Netlist.t
(** XLS flow; [stages] defaults to 4. *)

val spec : t -> Flow.spec
(** The kernel's registration with the evaluation pipeline: seeded raw
    sample blocks against {!reference}, bit-true compliance. *)

val designs : t -> Design.t list
(** One design point per front end — Chisel, XLS, Bambu — measurable
    with [Evaluate.measure ~spec]. *)
