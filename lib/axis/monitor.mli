(** AXI-Stream protocol monitor.

    Checks a per-cycle trace of the master-side handshake against the
    protocol rules the paper's IP-library setting relies on:

    - stability: once [m_valid] is asserted with [m_ready] low, [m_valid],
      every data lane and [m_last] must hold unchanged until the beat is
      accepted;
    - framing: [m_last] must be asserted on exactly every eighth accepted
      beat;
    - no spurious last: [m_last] only with [m_valid]. *)

type sample = {
  cycle : int;
  valid : bool;
  ready : bool;
  last : bool;
  data : int array;
}

type violation = { at_cycle : int; rule : string }

val check : sample list -> violation list
(** Samples must be in increasing cycle order.  This list-based checker
    is the reference the online monitor below is tested against. *)

type online
(** An online monitor of one stream: {!check}'s rules, fed one cycle at
    a time, keeping only the stalled beat. *)

val online : unit -> online

val observe :
  online -> cycle:int -> valid:bool -> ready:bool -> last:bool -> int array ->
  unit
(** Feeds one cycle's master-side handshake.  The data array
    ([Stream.lanes] elements) is read only when [valid] is set, and is
    copied only when the beat stalls, so the caller may reuse it. *)

val violations : online -> violation list
(** Everything reported so far, in the order {!check} reports it for the
    same samples. *)

val pp_violation : Format.formatter -> violation -> unit
