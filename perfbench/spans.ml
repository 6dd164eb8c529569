(* In-memory span recorder for the traced benchmark run.

   A span is (id, name, start, end, parent) on the monotonic clock, in
   nanoseconds.  Each domain keeps its own stack of open spans, so a span
   opened inside a pool job nests under the job's span; a job's outermost
   span, opened on a worker domain with an empty stack, takes the pool's
   enclosing span ([set_pool_parent]) as its parent.  Finished spans are
   kept in memory and written out once, when the run ends. *)

type t = { id : int; name : string; t0 : int64; t1 : int64; parent : int }

let now () = Monotonic_clock.now ()
let next_id = Atomic.make 1
let pool_parent = Atomic.make 0
let lock = Mutex.create ()
let finished : t list ref = ref []
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let set_pool_parent id = Atomic.set pool_parent id

let record ~name ~parent t0 t1 =
  let s = { id = Atomic.fetch_and_add next_id 1; name; t0; t1; parent } in
  Mutex.protect lock (fun () -> finished := s :: !finished)

(* [f] receives the new span's id, so a caller can attach child spans it
   only learns about afterwards (see [Bench.sim_call]). *)
let with_id name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let outer = Domain.DLS.get stack in
  let parent = match outer with p :: _ -> p | [] -> Atomic.get pool_parent in
  Domain.DLS.set stack (id :: outer);
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      Domain.DLS.set stack outer;
      Mutex.protect lock (fun () ->
          finished := { id; name; t0; t1; parent } :: !finished))
    (fun () -> f id)

let with_ name f = with_id name (fun _ -> f ())

let all () =
  Mutex.protect lock (fun () ->
      List.sort (fun a b -> compare a.id b.id) !finished)
