(* Domain-pool evaluation engine.

   Regenerating the paper's artifacts is dominated by evaluation: Fig. 1
   alone measures ~100 synthesized circuits, each one a cycle-accurate
   simulation plus a synthesis report.  The designs are independent, so
   [map_result] fans them out over a fixed-size pool of domains while
   keeping the result order deterministic (results land in a slot array
   indexed by the input position, never in completion order).  A failure
   is a value in its slot; [map] is the raising view of the same run.

   The pool size defaults to [Domain.recommended_domain_count ()], can be
   pinned per call with [?jobs], and per process with the [HLSVHC_JOBS]
   environment variable.  [~jobs:1] runs inline on the calling domain —
   no pool, byte-identical to the historical sequential path.

   A pool of [jobs] domains is the caller plus [jobs - 1] spawned ones:
   the calling domain runs worker 0's claim loop itself, then joins the
   rest.  A caller parked in [Domain.join] is not free — every domain
   takes part in each stop-the-world minor collection, so an idle joiner
   would be a [jobs + 1]th domain contending for [jobs] cores.

   Jobs must not share mutable builder state: a design's circuit cell
   ([Once]) is built inside the single job that first forces it, so every
   [Hw.Builder] hash-cons table lives and dies within one domain (see
   DESIGN.md §9).

   A map owns [jobs] domains but may run fewer workers: a 1-item batch
   runs inline, and a spawned worker whose claim loop has ended idles
   until the join.  Those slots are lent to a process-wide spare count,
   from which [fork] borrows one to start a thunk on a helper domain.  A
   map lends only from the top level (a map nested in a pool job or a
   helper already runs on a slot it does not own), and takes every slot
   it lent back before it returns, waiting for a borrower's join when it
   must, so concurrent maps never lend more than they own. *)

let env_warned = Atomic.make false

let env_jobs () =
  match Sys.getenv_opt "HLSVHC_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ ->
          (* Silently time-slicing a typo onto the default would be
             indistinguishable from the variable working; say so, once. *)
          if not (Atomic.exchange env_warned true) then
            Printf.eprintf
              "hlsvhc: ignoring invalid HLSVHC_JOBS=%S (want a positive \
               integer); using %d worker domains\n\
               %!"
              s
              (Domain.recommended_domain_count ());
          None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* Spare capacity: the slots the running maps lend and no helper holds.
   The lock guards the count; [returned] wakes a map taking its slots
   back. *)
let spare_slots = ref 0
let spare_lock = Mutex.create ()
let returned = Condition.create ()
let spare () = Mutex.protect spare_lock (fun () -> !spare_slots)

let lend k =
  if k > 0 then
    Mutex.protect spare_lock (fun () ->
        spare_slots := !spare_slots + k;
        Condition.broadcast returned)

(* Slot by slot, so a slot once taken back stays taken even while a
   borrower still holds another. *)
let take_back k =
  Mutex.protect spare_lock (fun () ->
      let need = ref k in
      while !need > 0 do
        if !spare_slots = 0 then Condition.wait returned spare_lock
        else begin
          let got = min !need !spare_slots in
          spare_slots := !spare_slots - got;
          need := !need - got
        end
      done)

let borrow () =
  Mutex.protect spare_lock (fun () ->
      !spare_slots > 0
      && begin
           decr spare_slots;
           true
         end)

(* Whether this domain is running on a slot it does not own: inside a
   pool job, or as a fork's helper. *)
let in_pool = Domain.DLS.new_key (fun () -> false)

let pooled f =
  let outer = Domain.DLS.get in_pool in
  Domain.DLS.set in_pool true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_pool outer) f

(* The pool: an atomic cursor over the input array; each worker claims
   the next index, runs the job and stores its outcome — the value, or
   the exception with its backtrace — in the slot of that index.  Every
   item runs whatever its siblings do, and every domain is joined, so a
   raising job can neither deadlock the pool nor change which items
   ran.  Worker 0 is the calling domain; [~jobs:1] runs the same slot
   loop inline there, without the worker span. *)
let map_result ?jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let owned =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let jobs = max 1 (min owned n) in
  (* A top-level map lends the slots it owns but runs no worker on, and
     each spawned worker's slot once its claim loop ends. *)
  let lends = not (Domain.DLS.get in_pool) in
  let lent = ref (if lends then owned - jobs else 0) in
  let results = Array.make n None in
  let run i =
    results.(i) <-
      Some
        (match f items.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  (* Capture the trace switch once, before spawning: workers must agree
     with the caller on whether to record, even if the flag is toggled
     mid-run. *)
  let traced = Trace.enabled () in
  let next = Atomic.make 0 in
  let worker wid () =
    (* The claim loop, returning how many jobs this worker ran and the
       wall time it spent inside them (its busy time, as opposed to the
       tail time it idled waiting for the slowest sibling). *)
    let run_loop () =
      let claimed = ref 0 and busy = ref 0.0 in
      let i = ref (Atomic.fetch_and_add next 1) in
      while !i < n do
        incr claimed;
        let t0 = if traced then Trace.now () else 0.0 in
        run !i;
        if traced then busy := !busy +. (Trace.now () -. t0);
        i := Atomic.fetch_and_add next 1
      done;
      (!claimed, !busy)
    in
    if traced then
      Trace.with_span
        ~design:(Printf.sprintf "pool/worker%d" wid)
        ~stage:"worker"
        (fun () ->
          let claimed, busy = run_loop () in
          Trace.add_counter "claimed" claimed;
          Trace.add_counter "busy_us" (int_of_float (busy *. 1e6)))
    else ignore (run_loop ())
  in
  let spawn_and_join () =
    let domains =
      List.init (jobs - 1) (fun k ->
          let d =
            Domain.spawn (fun () ->
                Domain.DLS.set in_pool true;
                worker (k + 1) ();
                if lends then lend 1)
          in
          if lends then incr lent;
          d)
    in
    pooled (worker 0);
    List.iter Domain.join domains
  in
  lend !lent;
  Fun.protect
    ~finally:(fun () -> take_back !lent)
    (fun () ->
      if jobs = 1 then pooled (fun () -> for i = 0 to n - 1 do run i done)
      else if traced then
        Trace.with_span ~design:"pool" ~stage:"map" (fun () ->
            Trace.add_counter "jobs" jobs;
            Trace.add_counter "items" n;
            spawn_and_join ())
      else spawn_and_join ());
  Array.to_list (Array.map Option.get results)

(* Fail-fast is a view of the keep-going result: the lowest-index
   failure is re-raised, so the exception does not depend on [jobs]. *)
let map ?jobs f xs =
  List.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (map_result ?jobs f xs)

(* Fork/join on spare capacity.  A fork that borrows a slot runs on a
   helper domain that holds it until the join, so the helpers alive at
   once never outnumber the lent slots; one that finds none defers its
   thunk to the join.  The helper catches the thunk's exception with its
   backtrace, so the join re-raises exactly what an inline run would. *)
type 'a fork =
  | Spawned of ('a, exn * Printexc.raw_backtrace) result Domain.t
  | Deferred of (unit -> 'a)

let fork f =
  if not (borrow ()) then Deferred f
  else
    match
      Domain.spawn (fun () ->
          Domain.DLS.set in_pool true;
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    with
    | d -> Spawned d
    | exception _ ->
        lend 1;
        Deferred f

let finish d =
  Fun.protect ~finally:(fun () -> lend 1) (fun () -> Domain.join d)

let join = function
  | Deferred f -> f ()
  | Spawned d -> (
      match
        Trace.with_inner_span ~default:"pool" ~stage:"wait" (fun () ->
            finish d)
      with
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let drop = function Deferred _ -> () | Spawned d -> ignore (finish d)

(* Content-keyed in-memory result cache, shared across domains behind a
   mutex.  The mutex guards only table access, never the computation: two
   domains racing on the same missing key both compute, and the first
   store wins so every caller observes one canonical value.  The engine's
   work lists never contain duplicate keys, so in practice each key is
   computed once. *)
module Memo (V : sig
  type t
end) =
struct
  let lock = Mutex.create ()
  let table : (string, V.t) Hashtbl.t = Hashtbl.create 64

  let find_or_compute ~key f =
    match Mutex.protect lock (fun () -> Hashtbl.find_opt table key) with
    | Some v -> v
    | None ->
        let v = f () in
        Mutex.protect lock (fun () ->
            match Hashtbl.find_opt table key with
            | Some winner -> winner
            | None ->
                Hashtbl.replace table key v;
                v)

  let mem key = Mutex.protect lock (fun () -> Hashtbl.mem table key)
  let size () = Mutex.protect lock (fun () -> Hashtbl.length table)
  let clear () = Mutex.protect lock (fun () -> Hashtbl.reset table)
end
