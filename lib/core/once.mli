(** A lazily built value that any number of domains may force.

    The kernels' design points are shared top-level values whose
    netlists (or MaxJ systems) are built on first use, from whichever pool
    worker or serve connection gets there first.  A cell serializes only
    its own construction: different cells build concurrently, and no
    lock is held while a constructor runs, so a constructor may force
    other cells (a derived design forces its base).

    - {!force} runs the constructor at most once.  Every later or
      concurrent force returns the physically same value.
    - A domain that finds the cell under construction by another domain
      blocks until it is built, inside a [wait] trace span ({!Trace}).
    - A constructor that raises makes the cell failed: every later force
      re-raises the same exception, with its backtrace.
    - A force of a cell from inside that cell's own construction on the
      same domain raises {!Cycle} instead of deadlocking.  The builder is
      identified by its domain, so cells are for domains, not for
      systhreads sharing one.  Cells must depend on each other acyclically
      (a derived design on its base): a cycle split across two domains'
      constructions would wait forever, and the same cycle built by one
      domain raises {!Cycle}. *)

type 'a t

exception Cycle of string
(** The name of a cell forced again from inside its own construction. *)

val make : string -> (unit -> 'a) -> 'a t
(** [make name f]: a cold cell that builds with [f]. [name] identifies
    the cell in {!Cycle} and in traces. *)

val force : 'a t -> 'a
(** Build the cell on this domain if it is cold, wait for it if another
    domain is building it, and return the value (or re-raise the
    construction's exception).  Lock-free once the cell is built. *)

val blocked : 'a t -> int
(** How many domains are blocked in {!force} waiting for this cell's
    construction right now. *)
