(** Deterministic fault injection into the staged design flow
    (DESIGN.md §11).

    Every failure path of the resilience layer — typed {!Flow.Error}s,
    [--keep-going] sweeps, the failure summary — is proved by injecting
    faults at the Flow stage boundaries and watching the system degrade
    exactly as documented.  Injection is off unless a {!spec} is
    {!arm}ed (by a test, the [--fault] flag, or the [HLSVHC_FAULT]
    environment variable), and with nothing armed every probe is a cheap
    no-op, so the measurement pipeline is byte-identical to the
    uninstrumented one.

    A spec is fully deterministic: it names the fault, the targeted
    designs (a substring of the ["Tool/label"] span key; [""] or ["*"]
    matches every design) and a seed.  The seed feeds no wall clock and
    no global RNG — it only selects {e which} block a {!Poison} fault
    corrupts and by how much, so a seeded run is exactly repeatable. *)

type fault =
  | Stall
      (** the streaming consumer wedges: the driver's cycle budget is
          clamped to a handful of cycles, so the run ends in the driver's
          own timeout path ([Sim_timeout]) *)
  | Poison
      (** one simulated output block (seed-selected) is corrupted, so the
          bit-true check fails with that block's index ([Not_bit_true]) *)
  | Protocol
      (** an AXI-Stream violation verdict is injected into the monitor's
          report ([Protocol_violation]) *)
  | Crash of string
      (** raise {!Injected} on entry to the named Flow stage — e.g.
          [Crash "synthesize"] is a synthesis failure, [Crash "simulate"]
          an engine failure, [Crash "metrics"] an unexpected exception *)
  | Slow_client
      (** the serve daemon treats matching connections as wedged clients:
          their batch read is discarded until the idle deadline fires, so
          the timeout/close path runs deterministically.  [seed] bounds
          how many connections wedge (0 = all, [s] = the first [s]);
          [target] is unused — write [*] *)
  | Conn_drop
      (** the serve daemon drops matching connections after writing
          [seed] response lines, driving the client's typed
          [Closed_mid_response] path; [target] is unused *)
  | Shed
      (** the serve daemon sheds accepted connections with a
          [busy\tretry-after\tMS] answer as if over the in-flight limit;
          [seed] bounds how many (0 = all, [s] = the first [s]), so a
          retrying client deterministically succeeds on attempt [s+1];
          [target] is unused *)

type spec = { fault : fault; target : string; seed : int }

exception Injected of string
(** Raised at an armed injection point; carries a human-readable
    description of the injected fault. *)

val parse : string -> (spec, string) result
(** Parse ["FAULT:TARGET[:SEED]"] — [FAULT] one of [stall], [poison],
    [protocol], [crash@STAGE], [slow-client], [conn-drop] or [shed];
    [TARGET] a span-key substring ([*] for all designs; unused by the
    connection faults); [SEED] a non-negative integer (default 0). *)

val to_string : spec -> string

val arm : spec -> unit
(** Arm one spec process-wide (replacing any previous one).  Workers on
    other domains observe the spec through an atomic, so arm before
    fanning out. *)

val disarm : unit -> unit
val armed : unit -> spec option

val load_env : unit -> (spec option, string) result
(** Arm from [HLSVHC_FAULT] when the variable is set; [Ok None] when it
    is unset, [Error _] when it does not parse. *)

(** {1 Probes}

    Called by {!Flow} (and only by {!Flow}) at the injection points.
    Each probe is a no-op unless the armed spec matches both the design
    and the probe's fault kind. *)

val crash_at_stage : design:string -> stage:string -> unit
(** Raise {!Injected} when a [Crash stage] spec targets this design. *)

val stall_timeout : design:string -> int option -> int option
(** The driver cycle budget: a clamped budget under an armed [Stall]
    spec, the given default otherwise. *)

val poison_blocks : design:string -> Axis.Block.t list -> Axis.Block.t list
(** Under an armed [Poison] spec, corrupt one element of the
    seed-selected block ([seed mod length] — deterministic); otherwise
    return the list unchanged, physically. *)

val inject_violation :
  design:string -> Axis.Monitor.violation list -> Axis.Monitor.violation list
(** Under an armed [Protocol] spec, prepend an injected violation. *)

(** {1 Connection probes}

    Called by the serve daemon (lib/serve) on its connection paths.
    The counted probes claim one firing per call: with seed [s > 0] the
    first [s] calls after {!arm} return [true], later ones [false];
    seed [0] fires on every call. *)

val slow_client_conn : unit -> bool
(** Claim one [Slow_client] firing: the connection's batch read must be
    treated as wedged (discarded until the idle deadline). *)

val shed_conn : unit -> bool
(** Claim one [Shed] firing: the connection must be answered [busy] and
    closed as if the daemon were over its in-flight limit. *)

val conn_drop_limit : unit -> int option
(** [Some seed] while a [Conn_drop] spec is armed: the number of
    response lines to write before abruptly closing the connection. *)
