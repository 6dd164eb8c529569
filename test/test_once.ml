(* Tests for Core.Once, the per-cell build-once primitive behind every
   design's netlist: one construction under contention, the cycle error,
   cached failures, nested forces, and the [wait] trace span. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module Once = Core.Once

(* Run [f i] on [n] domains released together. *)
let on_domains n f =
  let ready = Atomic.make 0 in
  let ds =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            f i))
  in
  List.map Domain.join ds

let test_one_construction () =
  let runs = Atomic.make 0 in
  let cell =
    Once.make "shared" (fun () ->
        Atomic.incr runs;
        Unix.sleepf 0.02;
        Array.make 8 0)
  in
  let got = on_domains 4 (fun _ -> Once.force cell) in
  check int "constructor ran once" 1 (Atomic.get runs);
  check bool "every domain got the same value" true
    (List.for_all (fun v -> v == List.hd got) got);
  check bool "later forces too" true (Once.force cell == List.hd got)

let test_cycle () =
  let self = ref None in
  let cell =
    Once.make "loop" (fun () ->
        match !self with Some c -> Once.force c + 1 | None -> 0)
  in
  self := Some cell;
  Alcotest.check_raises "re-force inside construction" (Once.Cycle "loop")
    (fun () -> ignore (Once.force cell));
  Alcotest.check_raises "the cycle is the cell's result" (Once.Cycle "loop")
    (fun () -> ignore (Once.force cell))

let test_failure_cached () =
  let runs = ref 0 in
  let cell =
    Once.make "broken" (fun () ->
        incr runs;
        failwith "boom")
  in
  for _ = 1 to 3 do
    Alcotest.check_raises "re-raises" (Failure "boom") (fun () ->
        ignore (Once.force cell))
  done;
  check int "constructor ran once" 1 !runs

let test_nested_cells () =
  let base = Once.make "base" (fun () -> 20) in
  let derived = Once.make "derived" (fun () -> Once.force base + 1) in
  let got = on_domains 4 (fun i -> if i mod 2 = 0 then Once.force derived else Once.force base) in
  check (Alcotest.list int) "forces through a base cell" [ 21; 20; 21; 20 ] got

(* Domain A holds the construction until domain B is blocked on the cell,
   so B's force waits by construction, not by timing. *)
let test_wait_span () =
  Core.Trace.set_enabled true;
  ignore (Core.Trace.drain ());
  let started = Semaphore.Binary.make false
  and go = Semaphore.Binary.make false in
  let cell =
    Once.make "slow" (fun () ->
        Semaphore.Binary.release started;
        Semaphore.Binary.acquire go;
        42)
  in
  let force_as design =
    Domain.spawn (fun () ->
        Core.Trace.with_span ~design ~stage:"force" (fun () -> Once.force cell))
  in
  let a = force_as "A" in
  Semaphore.Binary.acquire started;
  let b = force_as "B" in
  while Once.blocked cell < 1 do
    Domain.cpu_relax ()
  done;
  Semaphore.Binary.release go;
  check int "A built" 42 (Domain.join a);
  check int "B waited for it" 42 (Domain.join b);
  let spans = Core.Trace.drain () in
  Core.Trace.set_enabled false;
  let waits d =
    List.length
      (List.filter
         (fun s -> s.Core.Trace.stage = "wait" && s.Core.Trace.design = d)
         spans)
  in
  check int "B's trace has one wait span" 1 (waits "B");
  check int "A's has none" 0 (waits "A");
  check int "no blocked domain left" 0 (Once.blocked cell)

let () =
  Alcotest.run "once"
    [
      ( "once",
        [
          Alcotest.test_case "4 domains, one construction" `Quick
            test_one_construction;
          Alcotest.test_case "re-force inside construction is a cycle" `Quick
            test_cycle;
          Alcotest.test_case "a failed construction re-raises" `Quick
            test_failure_cached;
          Alcotest.test_case "forcing another cell inside a construction"
            `Quick test_nested_cells;
          Alcotest.test_case "blocking on another domain is a wait span"
            `Quick test_wait_span;
        ] );
    ]
