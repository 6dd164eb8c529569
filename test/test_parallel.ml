(* The domain-parallel evaluation engine: pool semantics, determinism of
   the Fig. 1 pipeline under parallel evaluation, the shared measurement
   cache, and the fixed multi-line-comment LOC counter. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- the pool itself ---------------- *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  check (Alcotest.list int) "squares in order"
    (List.map (fun x -> x * x) xs)
    (Core.Parallel.map ~jobs:4 (fun x -> x * x) xs);
  check (Alcotest.list int) "jobs=1 inline"
    (List.map succ xs)
    (Core.Parallel.map ~jobs:1 succ xs);
  check (Alcotest.list int) "more jobs than items" [ 4; 9 ]
    (Core.Parallel.map ~jobs:16 (fun x -> x * x) [ 2; 3 ])

let test_map_empty_and_env () =
  check (Alcotest.list int) "empty" [] (Core.Parallel.map ~jobs:4 succ []);
  check bool "default_jobs positive" true (Core.Parallel.default_jobs () >= 1)

let test_pool_is_caller_plus_spawned () =
  (* Two items that rendezvous, each waiting until both have started, can
     only finish on two domains at once; at [~jobs:2] those must be the
     caller and one spawned domain, not two spawned ones beside an idle
     joiner.  A missing partner fails the job instead of hanging. *)
  let caller = (Domain.self () :> int) in
  let started = Atomic.make 0 in
  let rendezvous _ =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get started < 2 do
      if Unix.gettimeofday () > deadline then failwith "rendezvous timed out";
      Domain.cpu_relax ()
    done;
    (Domain.self () :> int)
  in
  let ids = Core.Parallel.map ~jobs:2 rendezvous [ 0; 1 ] in
  check int "two distinct domains" 2 (List.length (List.sort_uniq compare ids));
  check bool "one of them is the caller" true (List.mem caller ids);
  check bool "jobs=1 runs every job on the caller" true
    (List.for_all (( = ) caller)
       (Core.Parallel.map ~jobs:1
          (fun _ -> (Domain.self () :> int))
          (List.init 8 Fun.id)))

let test_pool_survives_raising_job () =
  let xs = List.init 50 Fun.id in
  (* The first failure propagates to the caller... *)
  (match
     Core.Parallel.map ~jobs:3
       (fun x -> if x = 17 then failwith "boom" else x)
       xs
   with
  | _ -> Alcotest.fail "expected the job's exception"
  | exception Failure m -> check Alcotest.string "exn text" "boom" m);
  (* ...and the engine stays usable afterwards: no deadlock, no poisoned
     state. *)
  check (Alcotest.list int) "pool reusable after failure"
    (List.map succ xs)
    (Core.Parallel.map ~jobs:3 succ xs)

let test_lowest_index_failure_wins () =
  (* Item 3 fails late and item 17 at once: whichever domain finishes
     first, [map] re-raises the lowest-index failure at every job
     count. *)
  let f x =
    if x = 3 then begin
      Unix.sleepf 0.05;
      failwith "3"
    end
    else if x = 17 then failwith "17"
    else x
  in
  List.iter
    (fun jobs ->
      match Core.Parallel.map ~jobs f (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected the job's exception"
      | exception Failure m ->
          check Alcotest.string (Printf.sprintf "jobs=%d raises item 3" jobs)
            "3" m)
    [ 1; 2; 4 ]

(* ---------------- keep-going map ---------------- *)

let test_map_result_order_and_capture () =
  let xs = List.init 40 Fun.id in
  let run jobs =
    Core.Parallel.map_result ~jobs
      (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x * 2)
      xs
  in
  let examine rs =
    check int "one slot per item" 40 (List.length rs);
    List.iteri
      (fun i r ->
        match r with
        | Ok v ->
            check bool "slot should have failed" false (i mod 7 = 3);
            check int "value in input order" (i * 2) v
        | Error (Failure m, _) ->
            check bool "slot should have survived" true (i mod 7 = 3);
            check int "exception captured in its own slot" i (int_of_string m)
        | Error _ -> Alcotest.fail "wrong exception captured")
      rs
  in
  examine (run 4);
  (* The inline path has the same per-slot semantics. *)
  examine (run 1)

let test_map_result_runs_everything () =
  (* No abort: every item executes even when an early one raises. *)
  let ran = Atomic.make 0 in
  let rs =
    Core.Parallel.map_result ~jobs:3
      (fun x ->
        Atomic.incr ran;
        if x = 0 then failwith "first";
        x)
      (List.init 30 Fun.id)
  in
  check int "every job ran" 30 (Atomic.get ran);
  check int "every slot filled" 30 (List.length rs)

(* ---------------- the shared memo cache ---------------- *)

module Memo_ref = Core.Parallel.Memo (struct
  type t = int ref
end)

let test_memo_race_first_store_wins () =
  Memo_ref.clear ();
  (* Both domains pass the barrier before either calls the cache, so the
     two computations genuinely race on one missing key. *)
  let entered = Atomic.make 0 in
  let contender id =
    Domain.spawn (fun () ->
        Atomic.incr entered;
        while Atomic.get entered < 2 do
          Domain.cpu_relax ()
        done;
        Memo_ref.find_or_compute ~key:"race" (fun () -> ref id))
  in
  let a = contender 1 and b = contender 2 in
  let ra = Domain.join a and rb = Domain.join b in
  check bool "both callers get one canonical value" true (ra == rb);
  check bool "the canonical value is one of the computed ones" true
    (!ra = 1 || !ra = 2);
  check int "losing store is discarded" 1 (Memo_ref.size ());
  (* A later hit returns the same canonical value. *)
  check bool "hit is physically the stored value" true
    (Memo_ref.find_or_compute ~key:"race" (fun () -> ref 99) == ra);
  Memo_ref.clear ()

(* ---------------- fig1 determinism ---------------- *)

let tools = [ Core.Design.Verilog; Core.Design.Chisel; Core.Design.Dslx ]

let points_flat series =
  List.concat_map (fun (s : Core.Fig1.series) -> s.Core.Fig1.points) series

let test_fig1_parallel_equals_sequential () =
  Core.Evaluate.clear_measure_cache ();
  let seq = Core.Fig1.compute ~jobs:1 ~tools () in
  Core.Evaluate.clear_measure_cache ();
  let par = Core.Fig1.compute ~jobs:4 ~tools () in
  check int "same series count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Core.Fig1.series) (b : Core.Fig1.series) ->
      check bool "same tool" true (a.Core.Fig1.tool = b.Core.Fig1.tool))
    seq par;
  check bool "points equal point-for-point" true
    (points_flat seq = points_flat par)

let test_fig1_warm_rereads_memo () =
  Core.Evaluate.clear_measure_cache ();
  let first = Core.Fig1.compute ~jobs:2 ~tools () in
  ignore (Core.Trace.drain ());
  Core.Trace.set_enabled true;
  let second =
    Fun.protect
      ~finally:(fun () -> Core.Trace.set_enabled false)
      (fun () -> Core.Fig1.compute ~jobs:2 ~tools ())
  in
  let spans = Core.Trace.drain () in
  check bool "warm series structurally equal" true (first = second);
  (* Fig1 caches nothing itself: the warm pass is one memo hit per
     design and never reaches the pipeline. *)
  let stage name = List.filter (fun s -> s.Core.Trace.stage = name) spans in
  let counter name =
    List.fold_left
      (fun acc s ->
        acc
        + Option.value ~default:0 (List.assoc_opt name s.Core.Trace.counters))
      0 (stage "measure")
  in
  let designs = List.length (List.concat_map (Core.Kernel.sweep idct) tools) in
  check int "one memo hit per design" designs (counter "cache_hit");
  check int "no memo miss" 0 (counter "cache_miss");
  check int "no elaborate span" 0 (List.length (stage "elaborate"))

(* ---------------- measurement cache ---------------- *)

let test_measure_cache () =
  Core.Evaluate.clear_measure_cache ();
  let d = Core.Kernel.initial idct Core.Design.Verilog in
  let m1 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
  let m2 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
  check bool "cache hit is the same measurement" true (m1 == m2);
  Core.Evaluate.clear_measure_cache ();
  let m3 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
  check bool "recomputation is structurally equal" true (m1 = m3)

(* ---------------- the fixed LOC counter ---------------- *)

let test_loc_multiline_verilog () =
  let src =
    "// header\nmodule m;\n/* multi\n   line\n   comment */\nwire x;\nendmodule\n"
  in
  check int "verilog multi-line block" 3 (Core.Loc.count src);
  (* A sensitivity list is not a comment opener. *)
  check int "always @(*) is code" 3
    (Core.Loc.count "always @(*) begin\n  x = 1;\nend\n")

let test_loc_multiline_c () =
  let src =
    "int f() {\n  /* spans\n     two lines */ int y = 0;\n  (*p)++;\n  return y; /* tail */\n}\n"
  in
  (* Interior comment text never counts; the closer line counts because
     code follows the closer; mid-line paren-star is a pointer deref. *)
  check int "c multi-line block" 5 (Core.Loc.count src);
  check int "string literal is opaque" 2
    (Core.Loc.count "s = \"/* not a comment\";\nx;\n")

let test_loc_multiline_bsv () =
  let src = "(* synthesize,\n   always_ready *)\nrule r;\nendrule\n" in
  check int "bsv attribute block" 2 (Core.Loc.count src);
  check int "nested ocaml-style" 1
    (Core.Loc.count "(* outer (* inner *)\n   still comment *)\ncode;\n")

let test_loc_alpha_consistency () =
  (* The Table II LOC decomposition survives the counter fix: parts stay
     positive and sum to the total for every registered design. *)
  List.iter
    (fun (d : Core.Design.t) ->
      check bool "fu loc positive" true (d.Core.Design.loc_fu > 0);
      check int "parts sum"
        (Core.Design.loc d)
        (d.Core.Design.loc_fu + d.Core.Design.loc_axi + d.Core.Design.loc_conf))
    (List.concat_map
       (fun t ->
         [ Core.Kernel.initial idct t; Core.Kernel.optimized idct t ])
       (Core.Kernel.tools idct))

(* ---------------- fork on spare capacity ---------------- *)

let self () = (Domain.self () :> int)

(* The one result of a 1-item map. *)
let in_map ~jobs f =
  match Core.Parallel.map ~jobs f [ () ] with
  | [ r ] -> r
  | _ -> Alcotest.fail "one result expected"

let test_fork_borrows_a_spare_domain () =
  let caller = self () in
  let lent, held, helper, returned, third =
    in_map ~jobs:2 (fun () ->
        let lent = Core.Parallel.spare () in
        let fk = Core.Parallel.fork self in
        let held = Core.Parallel.spare () in
        (* no slot is left: a second fork is deferred to its join *)
        let third = Core.Parallel.join (Core.Parallel.fork self) in
        let helper = Core.Parallel.join fk in
        (lent, held, helper, Core.Parallel.spare (), third))
  in
  check int "a 1-item map at jobs 2 lends one slot" 1 lent;
  check int "the helper holds it until the join" 0 held;
  check bool "the thunk ran on another domain" true (helper <> caller);
  check int "the join returns it" 1 returned;
  check int "without a slot, the thunk runs on the joiner" caller third;
  check int "the map took its slot back" 0 (Core.Parallel.spare ())

(* Before the join, at the join, and never when dropped. *)
let fork_runs_inline () =
  let caller = self () in
  let ran = ref false and dropped = ref false in
  let fk =
    Core.Parallel.fork (fun () ->
        ran := true;
        self ())
  in
  let before = !ran in
  let d = Core.Parallel.join fk in
  Core.Parallel.drop (Core.Parallel.fork (fun () -> dropped := true));
  [ before; d = caller; !ran; !dropped ]

let test_fork_inline_without_spare () =
  let inline = [ false; true; true; false ] in
  check (Alcotest.list bool) "outside any map" inline (fork_runs_inline ());
  check (Alcotest.list bool) "inside a map at jobs 1" inline
    (in_map ~jobs:1 fork_runs_inline);
  check int "jobs 1 lends nothing" 0
    (in_map ~jobs:1 (fun () -> Core.Parallel.spare ()));
  check (Alcotest.list bool) "after a lending map returned" inline
    (ignore (in_map ~jobs:2 Core.Parallel.spare);
     fork_runs_inline ())

let raise_forked () = failwith "forked"

let test_fork_reraises_with_backtrace () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  let outcome () =
    match Core.Parallel.join (Core.Parallel.fork raise_forked) with
    | () -> Alcotest.fail "the fork's exception was lost"
    | exception Failure m ->
        (m, Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) > 0)
  in
  let pair = Alcotest.(pair string bool) in
  check pair "on a helper domain" ("forked", true) (in_map ~jobs:2 outcome);
  check pair "inline" ("forked", true) (outcome ())

let test_spare_count_bounds_helpers () =
  check int "a 1-item map lends all but its own domain" 3
    (in_map ~jobs:4 Core.Parallel.spare);
  (* plus the slot of each spawned worker that has run out of items *)
  check bool "a 3-item map at jobs 4 lends at least the fourth" true
    (List.for_all
       (fun n -> n >= 1)
       (Core.Parallel.map ~jobs:4 (fun _ -> Core.Parallel.spare ()) [ 0; 1; 2 ]));
  check int "a nested map lends nothing" 1
    (in_map ~jobs:2 (fun () -> in_map ~jobs:4 Core.Parallel.spare));
  check int "a helper runs on the borrowed slot" 0
    (in_map ~jobs:2 (fun () ->
         Core.Parallel.join (Core.Parallel.fork Core.Parallel.spare)));
  check int "every map took its slots back" 0 (Core.Parallel.spare ())

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "empty and defaults" `Quick test_map_empty_and_env;
          Alcotest.test_case "caller is worker 0" `Quick
            test_pool_is_caller_plus_spawned;
          Alcotest.test_case "survives raising job" `Quick
            test_pool_survives_raising_job;
          Alcotest.test_case "lowest-index failure wins" `Quick
            test_lowest_index_failure_wins;
          Alcotest.test_case "map_result order and capture" `Quick
            test_map_result_order_and_capture;
          Alcotest.test_case "map_result runs everything" `Quick
            test_map_result_runs_everything;
          Alcotest.test_case "fork borrows a spare domain" `Quick
            test_fork_borrows_a_spare_domain;
          Alcotest.test_case "fork runs inline without a spare" `Quick
            test_fork_inline_without_spare;
          Alcotest.test_case "fork re-raises with its backtrace" `Quick
            test_fork_reraises_with_backtrace;
          Alcotest.test_case "spare count bounds the helpers" `Quick
            test_spare_count_bounds_helpers;
        ] );
      ( "memo",
        [
          Alcotest.test_case "first store wins" `Quick
            test_memo_race_first_store_wins;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "parallel = sequential" `Slow
            test_fig1_parallel_equals_sequential;
          Alcotest.test_case "cache hit identical" `Slow
            test_fig1_warm_rereads_memo;
        ] );
      ( "cache",
        [ Alcotest.test_case "measure memoized" `Quick test_measure_cache ] );
      ( "loc",
        [
          Alcotest.test_case "verilog multi-line" `Quick
            test_loc_multiline_verilog;
          Alcotest.test_case "c multi-line" `Quick test_loc_multiline_c;
          Alcotest.test_case "bsv attributes" `Quick test_loc_multiline_bsv;
          Alcotest.test_case "decomposition intact" `Quick
            test_loc_alpha_consistency;
        ] );
    ]
