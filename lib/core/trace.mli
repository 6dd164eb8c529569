(** Span tracing of the staged design flow (DESIGN.md §10).

    Every stage of the measurement pipeline ({!Flow}) runs inside a span
    that records wall time and counters (netlist nodes, simulated cycles,
    cache hits...).  Collection is domain-safe: each domain keeps its own
    stack of open spans, a span's parent is the span open on the same
    domain when it opened, and a closed span joins one process-wide list
    under a mutex until the trace is {!drain}ed.

    Tracing is off by default and, when off, every entry point is a
    near-free no-op — artifacts are byte-identical with tracing on or
    off, which the flow tests check. *)

type span = {
  id : int;         (** process-unique, > 0 *)
  parent : int;     (** [id] of the span open on [domain] at open, or 0 *)
  domain : int;     (** the recording domain ([Domain.self]) *)
  design : string;  (** "kernel:Tool/label", or "pool..." for engine spans *)
  stage : string;   (** flow stage name, e.g. "simulate" *)
  start_s : float;  (** monotonic clock ({!now}) at open *)
  dur_s : float;    (** elapsed time on the same clock *)
  counters : (string * int) list;
}

val now : unit -> float
(** Seconds on the monotonic clock (an arbitrary origin): only
    differences between readings are meaningful. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : design:string -> stage:string -> (unit -> 'a) -> 'a
(** Times [f] inside a span on the current domain; the span is recorded
    even when [f] raises.  When tracing is disabled this is exactly
    [f ()]. *)

val with_inner_span :
  default:string -> stage:string -> (unit -> 'a) -> 'a
(** {!with_span} on the design of this domain's innermost open span, so
    the new span is filed with its parent; on design [default] when no
    span is open. *)

val add_counter : string -> int -> unit
(** Adds [v] to the named counter of the innermost open span of the
    current domain (no-op when tracing is disabled or no span is open).
    Repeated additions under one key accumulate. *)

val drain : unit -> span list
(** Return and clear the closed spans of every domain, sorted by start
    time (ties by [id]). *)

(** {1 JSON Lines and the [stats] summary} *)

exception Write_error of { wr_path : string; wr_reason : string }
(** A failed atomic publish — the path that could not be written and the
    underlying reason.  Raised by {!write_atomic} and {!rename_durable}
    instead of a bare [Sys_error]/[Unix_error], so keep-going callers can
    report it as a typed condition. *)

val json_escape : string -> string
(** The body of a JSON string literal: quote, backslash, newline and tab
    escaped by name, other control characters as [\u00XX]; every JSON
    artifact (traces, Fig. 1, the DSE report) escapes through it. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** Run the emitter on a sibling temp file, then rename it over the
    target path: readers observe the old complete file or the new
    complete file, never a truncation.  On an emitter exception the temp
    file is removed and the target is untouched.  The temp name carries
    the pid {e and} a per-process atomic counter, so concurrent domains
    writing the same path never clobber each other's temp file.  Shared
    by {!write_json}, every file the CLI writes, the bench JSON writer
    and the persistent result store.
    @raise Write_error when the file cannot be created or published *)

val rename_durable : src:string -> dst:string -> unit
(** Atomically publish [src] as [dst].  A plain [rename] when both sit
    on one filesystem; across filesystems ([EXDEV]) the bytes are copied
    to a fresh temp sibling of [dst], fsynced, and renamed within that
    directory, so the publish step itself stays atomic.  [src] is
    consumed on success.
    @raise Write_error on failure (with [src] cleaned up) *)

val write_json : string -> span list -> unit
(** One JSON object per line and per span ({!write_atomic}), keys in the
    fixed order [id, parent, domain, design, stage, start_ms, dur_ms,
    counters]; times are milliseconds from the first span's start. *)

val load_json : string -> span list
(** Read back exactly what {!write_json} writes.
    @raise Failure on an empty file, or naming [path:line] and the
    expected token on a malformed one
    @raise Sys_error when the file cannot be read *)

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the summed
    durations of the spans whose [parent] is its [id]. *)

val render_stats : ?by_tool:bool -> string -> string
(** The [hlsvhc stats] report of a trace file: design points (the
    kernel-qualified names) and engine groups, each domain's busy time
    (its root spans) next to the traced wall, then per stage the count,
    inclusive and self time, mean and share.  A share is the summed
    inclusive time over the traced wall interval (first start to last
    end), so a stage busy on several domains at once can exceed 100%.
    With [~by_tool:true] the table has one row per stage and tool (a
    design point's tool, or an engine group's name) instead, stages in
    the order of their total time and each stage's tools by self time,
    and no counters. *)

val render_diff : string -> string -> string
(** [render_diff before after], the [hlsvhc stats --diff] report of two
    trace files: self time before and after, and its change, per stage
    and then per stage and tool (grouped as by [~by_tool]).  A key
    missing from one trace counts 0 there; a row new in [after] reads
    [new] for the relative change.  Rows come in the order of their
    larger self time. *)
