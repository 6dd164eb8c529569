(* The simulation interface used across the system.  A thin façade over
   the levelized batch engine {!Compile}; the semantics are pinned down by
   {!Interp}, the retained reference interpreter.  The two are
   cross-checked by {!Equiv.crosscheck} and the property tests.

   The monomorphic part of the interface (no [?lane]) is unchanged from
   the pre-batch engine and always addresses lane 0, so existing callers
   are oblivious to the batch dimension. *)

type t = Compile.t

let create c = Compile.create c
let create_batch ~batch c = Compile.create ~batch c
let circuit = Compile.circuit
let batch = Compile.batch
let reset = Compile.reset
type port = Compile.port

let in_port = Compile.in_port
let out_port = Compile.out_port
let set_port = Compile.set_port
let get_port = Compile.get_port
let set t p v = Compile.set t p v
let get t p = Compile.get t p
let get_signed t p = Compile.get_signed t p
let set_lane t ~lane p v = Compile.set ~lane t p v
let get_lane t ~lane p = Compile.get ~lane t p
let get_signed_lane t ~lane p = Compile.get_signed ~lane t p
let step = Compile.step
let batch_step = Compile.batch_step
let step_n = Compile.step_n
let peek t u = Compile.peek t u
let peek_signed t u = Compile.peek_signed t u
let peek_lane t ~lane u = Compile.peek ~lane t u
let cycle_count = Compile.cycle_count
let compiled_nodes = Compile.compiled_nodes
let total_nodes = Compile.total_nodes
