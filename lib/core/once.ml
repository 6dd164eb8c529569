(* A per-cell once: the cell's state is an atomic, claimed by one
   compare-and-set; the mutex and condition only serve domains that must
   wait for another domain's construction. *)

type 'a state =
  | Cold of (unit -> 'a)
  | Building of Domain.id
  | Built of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a t = {
  name : string;
  state : 'a state Atomic.t;
  lock : Mutex.t;
  settled : Condition.t;
  blocked : int Atomic.t;
}

exception Cycle of string

let () =
  Printexc.register_printer (function
    | Cycle name ->
        Some (Printf.sprintf "cycle: %s forced inside its own construction" name)
    | _ -> None)

let make name f =
  {
    name;
    state = Atomic.make (Cold f);
    lock = Mutex.create ();
    settled = Condition.create ();
    blocked = Atomic.make 0;
  }

let blocked t = Atomic.get t.blocked

let value = function
  | Built v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Cold _ | Building _ -> assert false

(* Publishing under the lock pairs with [wait]'s check-then-sleep, so no
   waiter misses the broadcast. *)
let settle t s =
  Mutex.protect t.lock (fun () ->
      Atomic.set t.state s;
      Condition.broadcast t.settled);
  value s

let build t f =
  match f () with
  | v -> settle t (Built v)
  | exception e -> settle t (Failed (e, Printexc.get_raw_backtrace ()))

let wait t =
  Atomic.incr t.blocked;
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.blocked)
    (fun () ->
      Trace.with_inner_span ~default:t.name ~stage:"wait" (fun () ->
          Mutex.protect t.lock (fun () ->
              let rec loop () =
                match Atomic.get t.state with
                | Building _ ->
                    Condition.wait t.settled t.lock;
                    loop ()
                | s -> s
              in
              loop ())))

let rec force t =
  match Atomic.get t.state with
  | (Built _ | Failed _) as s -> value s
  | Cold f as s ->
      if Atomic.compare_and_set t.state s (Building (Domain.self ())) then
        build t f
      else force t
  | Building d when d = Domain.self () -> raise (Cycle t.name)
  | Building _ -> value (wait t)
