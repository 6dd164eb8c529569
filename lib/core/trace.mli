(** Span tracing of the staged design flow (DESIGN.md §10).

    Every stage of the measurement pipeline ({!Flow}) runs inside a span
    that records wall time and counters (netlist nodes, simulated cycles,
    cache hits...).  Collection is domain-safe: spans accumulate in
    per-domain buffers (domain-local storage) and are merged into the
    process-wide trace when a pool worker exits ({!flush_domain}, called
    by {!Parallel.map}) or when the trace is {!drain}ed.

    Tracing is off by default and, when off, every entry point is a
    near-free no-op — artifacts are byte-identical with tracing on or
    off, which the flow tests check. *)

type span = {
  design : string;  (** "Tool/label", or "pool..." for engine spans *)
  stage : string;   (** flow stage name, e.g. "simulate" *)
  depth : int;      (** nesting depth at open time (0 = root) *)
  seq : int;        (** per-domain open order, for stable sorting *)
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
    the new span nests under it in the design's tree; on design [default]
    when no span is open. *)

val add_counter : string -> int -> unit
(** Adds [v] to the named counter of the innermost open span of the
    current domain (no-op when tracing is disabled or no span is open).
    Repeated additions under one key accumulate. *)

val flush_domain : unit -> unit
(** Merge this domain's buffered spans into the process-wide trace.
    {!Parallel.map} calls this in every spawned pool worker before it is
    joined (worker 0 is the caller, whose spans stay in its own buffer
    until it drains), so traces taken under [--jobs N] are complete and
    race-free. *)

val drain : unit -> span list
(** Flush the calling domain, then return and clear the merged trace.
    Spans are sorted by start time (ties by sequence number). *)

(** {1 JSON emission and the [stats] summary} *)

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
    by {!write_json}, the bench JSON writers and the persistent result
    store.
    @raise Write_error when the file cannot be created or published *)

val rename_durable : src:string -> dst:string -> unit
(** Atomically publish [src] as [dst].  A plain [rename] when both sit
    on one filesystem; across filesystems ([EXDEV]) the bytes are copied
    to a fresh temp sibling of [dst], fsynced, and renamed within that
    directory, so the publish step itself stays atomic.  [src] is
    consumed on success.
    @raise Write_error on failure (with [src] cleaned up) *)

val write_json : string -> span list -> unit
(** One complete span tree per design ({!write_atomic}): spans are
    grouped by [design] and nested by depth, with per-span wall times
    and counters. *)

type summary_row = {
  sum_stage : string;
  sum_count : int;
  sum_total_s : float;
  sum_counters : (string * int) list;
}

val summarize : span list -> summary_row list
(** Aggregate by stage name, in order of total time. *)

val load_json : string -> span list
(** Parse a file written by {!write_json} back into flat spans (depth and
    sequence reconstructed from the tree; start times are relative).
    @raise Failure on malformed or empty input (with the path and the
    parse position in the message)
    @raise Sys_error when the file cannot be read *)

val render_stats : string -> string
(** The [hlsvhc stats] report: per-stage counts, wall-time breakdown and
    aggregated counters of a trace file.  A stage's share is its summed
    time over the traced wall interval (first start to last end), so a
    stage busy on several domains at once can exceed 100%. *)
