(** The staged design-flow core (DESIGN.md §10).

    One measurement is a fixed pipeline of named stages, each wrapped in
    a {!Trace} span:

    {v
    elaborate -> validate -> simulate -> verify -> synthesize -> metrics
    v}

    - [elaborate]  force the design's cell: the frontend builds the netlist
    - [validate]   structural netlist validation
    - [simulate]   AXI-Stream testbench run (or the PCIe system model)
    - [verify]     bit-true comparison against the kernel's reference,
                   plus the AXI-Stream protocol verdict
    - [synthesize] technology mapping and static timing
    - [metrics]    assembly of the paper's indicator record

    The kernel under test is a {!spec}: stimulus generator, golden
    reference and timeout policy.  The paper's IDCT is {!idct_spec};
    {!Dot_kernel} registers its FIR and matmul the same way, which is how
    any future workload enters the pipeline. *)

type spec = {
  spec_name : string;  (** cache-key prefix, e.g. "idct" *)
  stimulus : int -> Axis.Block.t list;
      (** [stimulus n] generates the [n]-matrix input stream
          (deterministic: same [n], same stream) *)
  reference : Axis.Block.t -> Axis.Block.t;  (** golden transform *)
  sim_timeout : int option;
      (** testbench cycle budget; [None] = the driver default *)
  comply : blocks:int -> (Axis.Block.t list -> Axis.Block.t list) -> bool;
      (** the kernel's compliance procedure over a batched stream
          transform: IEEE 1180-1990 for the IDCT, bit-true-vs-reference
          ({!bit_true_comply}) for kernels without a statistical spec.
          Staged: applying [~blocks] prepares the design-independent
          data (stimulus and reference outputs), and the returned checker
          is pure — it never writes to that data, so one checker may be
          shared by every design on every domain *)
}

val bit_true_comply :
  stimulus:(int -> Axis.Block.t list) ->
  reference:(Axis.Block.t -> Axis.Block.t) ->
  blocks:int ->
  (Axis.Block.t list -> Axis.Block.t list) ->
  bool
(** The default [comply] for exact kernels: draw [blocks] stimulus
    blocks, push them through the batched DUT, require every output
    bit-identical to the reference model.  Staged: applying [~blocks]
    draws the stimulus and computes the reference outputs once. *)

val idct_spec : spec
(** The paper's kernel: IEEE-1180-seeded FDCT coefficient blocks checked
    against the fixed-point Chen–Wang reference. *)

val span_design : spec -> Design.t -> string
(** The kernel-qualified trace identity, ["kernel:Tool/label"] — what
    {!measure_uncached}'s stage spans are recorded under, so
    mixed-kernel traces stay attributable.  Fault injection and typed
    {!error}s keep the plain {!span_key}. *)

val stage_names : string list
(** The canonical stage names above, in pipeline order. *)

val span_key : Design.t -> string
(** The trace identity of a design: ["Tool/label"]. *)

(** {1 Typed flow errors (DESIGN.md §11)}

    Anything that goes wrong inside a stage is carried by {!Error}: the
    design key, the stage that failed, and an error class.  Batches
    record these per point as values; {!fail_fast} re-raises the first,
    and the registered exception printer renders the same text
    everywhere. *)

type error_class =
  | Not_bit_true of { block_index : int; got : string; expected : string }
      (** functional mismatch: index of the first wrong output block,
          with a one-row got/expected excerpt around the first wrong
          element *)
  | Protocol_violation of string  (** AXI-Stream monitor verdict *)
  | Sim_timeout of string
      (** the driver's cycle budget ran out (a wedged or stalled DUT) *)
  | Engine_failure of string
      (** elaborate/validate/simulate raised (other than a timeout) *)
  | Synth_failure of string  (** the synthesis stage raised *)
  | Unexpected of string  (** anything else, [Printexc]-rendered *)

type error = {
  err_design : string;  (** {!span_key} of the failing design *)
  err_stage : string;  (** stage name, or ["-"] outside the pipeline *)
  err_class : error_class;
}

exception Error of error

val class_name : error_class -> string
(** Stable kebab-case tag, e.g. ["not-bit-true"]. *)

val class_detail : error_class -> string
(** The human-readable payload of a class (mismatch excerpt, message...)
    — the detail column of the failure summary and the serve protocol. *)

val pp_error : Format.formatter -> error -> unit
(** The one canonical rendering:
    ["design D failed at S [class]: detail"].  Also registered with
    [Printexc], so an uncaught {!Error} prints the same text. *)

val error_to_string : error -> string

val error_of_exn : design:string -> exn -> error
(** {!Error} payloads pass through; any other exception becomes an
    [Unexpected] error attributed to [design]. *)

val errors : ('a, error) result list -> error list
(** The failures of a batch, in input order. *)

val fail_fast : 'a * error list -> 'a
(** The raising view of a batch result [(artifact, failures)]: the
    artifact when nothing failed, else [raise (Error e)] for the first
    failure [e] — the lowest-index point, whatever the job count. *)

val render_failure_summary : error list -> string
(** The failure table: one row per failed design point.  The design
    column is as wide as the longest key (at least 28 characters). *)

val stage : spec:spec -> Design.t -> string -> (unit -> 'a) -> 'a
(** [stage ~spec d name f] runs [f] as pipeline stage [name] of [d]: in
    a {!span_design} span, after the [crash@name] fault point, with any
    exception other than {!Error} raised as an {!Error} at stage [name].
    Its class comes from the exception and the stage: an
    {!Axis.Driver.Protocol_violation} in any stage is a
    {!Protocol_violation}, a driver timeout in [simulate] or
    [comply] is a {!Sim_timeout}, anything else in [elaborate],
    [validate], [simulate] or [comply] an {!Engine_failure}, anything in
    [synthesize] a {!Synth_failure}, the rest {!Unexpected}. *)

val measure_uncached : ?matrices:int -> spec:spec -> Design.t -> Metrics.measured
(** Run the full staged pipeline on one design under [spec]'s kernel.
    [matrices] (default 4) sets the simulated stream length.  The kernel
    is explicit at every call site; pass [Flow.idct_spec] (or go through
    {!Kernel}) to measure the paper's IDCT.

    @raise Error if a stage fails: not bit-true against
    [spec.reference], an AXI-Stream protocol violation, a simulation
    timeout, an engine failure, a synthesis failure, or an unexpected
    exception. *)
