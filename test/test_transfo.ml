(* lib/transfo: scripted, equivalence-verified design transformations.

   Covers the script parser, the catalogue, each transformation's
   behaviour, the verification obligations (including that a broken
   transformation IS caught), the qcheck property that random applicable
   scripts on random combinational circuits stay crosscheck-clean, and
   the rederivation pin: initial architecture + script is node-identical
   to the hand-written Chisel optimized design. *)

open Hw
open Transfo
open Alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let row_comb name = Chisel.Idct_gen.row_comb Chisel.Idct_gen.Inferred ~name

let run_exn script subject =
  match Engine.run (Script.parse_exn script) subject with
  | Ok r -> r
  | Error e -> fail (Engine.error_to_string e)

(* ---------------- script parser ---------------- *)

let test_script_parse () =
  (match Script.parse "retime 2; strength_reduce" with
  | Ok [ a; b ] ->
      check string "name 1" "retime" a.Script.step_name;
      check (option int) "arg 1" (Some 2) a.Script.step_arg;
      check string "name 2" "strength_reduce" b.Script.step_name;
      check (option int) "arg 2" None b.Script.step_arg
  | Ok _ -> fail "wrong step count"
  | Error e -> fail e);
  check string "canonical form" "retime 2; unroll 4"
    (Script.to_string (Script.parse_exn "  Retime   2 ;unroll 4 ;"));
  (match Script.parse "" with
  | Error e -> check bool "empty diagnostic" true (contains e "empty script")
  | Ok _ -> fail "empty script accepted");
  (match Script.parse "retime two" with
  | Error e -> check bool "bad int diagnostic" true (contains e "not an integer")
  | Ok _ -> fail "non-integer argument accepted");
  match Script.parse "retime 2 3" with
  | Error e -> check bool "arity diagnostic" true (contains e "expected NAME")
  | Ok _ -> fail "three-token step accepted"

(* ---------------- catalogue ---------------- *)

let test_catalog () =
  check (list string) "catalogue order"
    [
      "retime";
      "outreg";
      "strength_reduce";
      "narrow";
      "unroll";
      "fold_rows";
      "fold_cols";
    ]
    (Catalog.names ());
  (match Catalog.find "PIPELINE" with
  | Some (module T : Catalog.TRANSFO) ->
      check string "alias resolves" "retime" T.name
  | None -> fail "alias lookup failed");
  check bool "unknown name" true (Catalog.find "bogus" = None);
  let msg = Catalog.unknown_transfo_msg "bogus" in
  check bool "msg names the culprit" true (contains msg "\"bogus\"");
  List.iter
    (fun nm -> check bool ("msg lists " ^ nm) true (contains msg nm))
    (Catalog.names ())

(* ---------------- individual transformations ---------------- *)

let test_retime () =
  let r = run_exn "retime 2" (Subject.of_circuit (row_comb "rc_retime")) in
  let subj = r.Engine.rep_subject in
  check int "latency accounted" 2 subj.Subject.latency_added;
  check bool "registers present" true
    (Array.exists Netlist.is_reg subj.Subject.circuit.Netlist.nodes);
  check (list string) "history" [ "retime 2" ] subj.Subject.history;
  (* the payoff: under the xcvu9p delay model, four stages cut the row
     datapath's critical path *)
  let fmax c = (Timing.analyze Device.xcvu9p c).Timing.fmax_mhz in
  let before = row_comb "rc_retime4" in
  let r4 = run_exn "retime 4" (Subject.of_circuit before) in
  check bool "retime 4 raises fmax" true
    (fmax r4.Engine.rep_subject.Subject.circuit > fmax before)

let test_outreg () =
  let before = row_comb "rc_outreg" in
  let r = run_exn "outreg" (Subject.of_circuit before) in
  let c = r.Engine.rep_subject.Subject.circuit in
  check int "one reg per output"
    (List.length before.Netlist.outputs)
    (Array.to_seq c.Netlist.nodes |> Seq.filter Netlist.is_reg |> Seq.length);
  check int "latency accounted" 1 r.Engine.rep_subject.Subject.latency_added

let const_muls (c : Netlist.t) =
  Array.to_seq c.Netlist.nodes
  |> Seq.filter (fun (nd : Netlist.node) ->
         match nd.Netlist.kind with
         | Netlist.Binop (Netlist.Mul, a, b) ->
             let is_const u =
               match (Netlist.node c u).Netlist.kind with
               | Netlist.Const _ -> true
               | _ -> false
             in
             is_const a || is_const b
         | _ -> false)
  |> Seq.length

let test_strength_reduce () =
  let before = row_comb "rc_sr" in
  check bool "subject has constant products" true (const_muls before > 0);
  let r = run_exn "strength_reduce" (Subject.of_circuit before) in
  check int "no constant products remain" 0
    (const_muls r.Engine.rep_subject.Subject.circuit)

(* The two cycle-exact rewrites chained on the IDCT row datapath, the
   default subject of [hlsvhc transfo]: both steps verify, with the node
   counts that command prints. *)
let test_reduce_then_narrow () =
  let r =
    run_exn "strength_reduce; narrow" (Subject.of_circuit (row_comb "rc_sn"))
  in
  check (list (pair int int)) "nodes per step"
    [ (144, 305); (305, 305) ]
    (List.map
       (fun (sr : Engine.step_report) ->
         (sr.Engine.sr_nodes_before, sr.Engine.sr_nodes_after))
       r.Engine.rep_steps)

(* Narrowing re-extends at every boundary, so the interesting metric is
   the width of the arithmetic itself, not the node-count (which grows
   with the coercions). *)
let arith_width (c : Netlist.t) =
  Array.fold_left
    (fun acc (nd : Netlist.node) ->
      match nd.Netlist.kind with
      | Netlist.Binop ((Netlist.Add | Netlist.Sub | Netlist.Mul), _, _) ->
          acc + nd.Netlist.width
      | _ -> acc)
    0 c.Netlist.nodes

let test_narrow () =
  (* the Fixed (32, 16) discipline computes everything in 32 bits and
     stores 16: demand analysis must strip dead upper bits *)
  let before =
    Chisel.Idct_gen.row_comb Chisel.Idct_gen.verilog_mode ~name:"rc_narrow"
  in
  let r = run_exn "narrow" (Subject.of_circuit before) in
  let after = r.Engine.rep_subject.Subject.circuit in
  check bool "arithmetic width shrinks" true
    (arith_width after < arith_width before)

let test_unroll () =
  let before = row_comb "rc_unroll" in
  let r = run_exn "unroll 4" (Subject.of_circuit before) in
  let c = r.Engine.rep_subject.Subject.circuit in
  check int "4x inputs"
    (4 * List.length before.Netlist.inputs)
    (List.length c.Netlist.inputs);
  check bool "lane-suffixed ports" true
    (List.mem_assoc "i0_r0" c.Netlist.inputs
    && List.mem_assoc "o7_r3" c.Netlist.outputs);
  check string "name suffix" "rc_unroll_x4" c.Netlist.circuit_name

(* ---------------- preconditions and diagnostics ---------------- *)

let test_preconditions () =
  let seq =
    Subject.of_circuit
      (run_exn "retime 1" (Subject.of_circuit (row_comb "rc_seq")))
        .Engine.rep_subject
        .Subject.circuit
  in
  (match Engine.run (Script.parse_exn "retime 2") seq with
  | Error (Engine.Precondition_failed { pf_reason; _ }) ->
      check bool "retime wants comb" true (contains pf_reason "combinational")
  | _ -> fail "retime accepted a sequential circuit");
  (match Engine.run (Script.parse_exn "fold_rows") seq with
  | Error (Engine.Precondition_failed { pf_reason; _ }) ->
      check bool "fold_rows wants an architecture" true
        (contains pf_reason "architecture")
  | _ -> fail "fold_rows accepted a netlist-only subject");
  (match Engine.run (Script.parse_exn "retime") seq with
  | Error (Engine.Precondition_failed { pf_reason; _ }) ->
      check bool "retime wants an argument" true (contains pf_reason "argument")
  | _ -> fail "retime accepted a missing argument");
  match
    Engine.run (Script.parse_exn "bogus") (Subject.of_circuit (row_comb "rc"))
  with
  | Error (Engine.Unknown_transfo nm) -> check string "culprit" "bogus" nm
  | _ -> fail "unknown transformation accepted"

(* ---------------- a broken transformation is caught ---------------- *)

(* Deliberately wrong "strength reduction": rewrites c*x to x+x. *)
module Bad_reduce = struct
  let name = "bad_reduce"
  let aliases = []
  let description = "deliberately broken (test only)"
  let precondition = "none"
  let arg = Catalog.No_arg
  let check ~arg:_ _ = Ok ()

  let apply ~arg:_ (s : Subject.t) =
    let hook em _ (nd : Netlist.node) =
      match nd.Netlist.kind with
      | Netlist.Binop (Netlist.Mul, a, b) ->
          Some
            (Rewrite.emit em ~width:nd.Netlist.width
               (Netlist.Binop
                  (Netlist.Add, Rewrite.mapped em a, Rewrite.mapped em b)))
      | _ -> None
    in
    {
      s with
      Subject.circuit = Rewrite.rewrite hook s.Subject.circuit;
      arch = None;
    }

  let obligation ~arg:_ = Verify.Cycle_exact
end

(* Correct rewrite, wrong obligation: claims two cycles of delay while
   adding one. *)
module Wrong_latency = struct
  let name = "wrong_latency"
  let aliases = []
  let description = "deliberately broken (test only)"
  let precondition = "combinational circuit"
  let arg = Catalog.No_arg
  let check ~arg:_ _ = Ok ()

  let apply ~arg:_ (s : Subject.t) =
    { s with Subject.circuit = Pipeline.retime ~stages:1 s.Subject.circuit }

  let obligation ~arg:_ = Verify.Delayed 2
end

let test_broken_caught () =
  let s = Subject.of_circuit (row_comb "rc_bad") in
  (match Engine.apply_step (module Bad_reduce) ~arg:None s with
  | Error (Engine.Verify_failed { vf_obligation; _ }) ->
      check string "cycle-exact obligation blamed" "cycle-exact" vf_obligation
  | Ok _ -> fail "broken rewrite survived verification"
  | Error e -> fail (Engine.error_to_string e));
  match Engine.apply_step (module Wrong_latency) ~arg:None s with
  | Error (Engine.Verify_failed { vf_reason; _ }) ->
      check bool "latency mismatch reported" true (contains vf_reason "delayed")
  | Ok _ -> fail "wrong latency claim survived verification"
  | Error e -> fail (Engine.error_to_string e)

(* ---------------- the verdict memo ---------------- *)

(* Records, per finished span, its stage and the counters raised inside
   it (the innermost open span of the calling domain).  The memo is
   process-wide, so every case below uses a seed no other case uses: its
   keys are fresh. *)
let recorded : (string * (string * int) list) list ref = ref []
let recorded_lock = Mutex.create ()
let open_counters = Domain.DLS.new_key (fun () -> ref [])

let recording_tracer =
  {
    Engine.wrap =
      (fun ~design:_ ~stage f ->
        let cur = Domain.DLS.get open_counters in
        let outer = !cur in
        cur := [];
        Fun.protect
          ~finally:(fun () ->
            let mine = List.rev !cur in
            cur := outer;
            Mutex.protect recorded_lock (fun () ->
                recorded := (stage, mine) :: !recorded))
          f);
    counter =
      (fun k v ->
        let cur = Domain.DLS.get open_counters in
        cur := (k, v) :: !cur);
  }

(* The counters of every [transfo:verify] span [f] finishes, in order. *)
let verify_spans f =
  Engine.set_tracer recording_tracer;
  recorded := [];
  let r = f () in
  let spans =
    List.rev !recorded
    |> List.filter_map (fun (stage, cs) ->
           if stage = "transfo:verify" then Some cs else None)
  in
  (r, spans)

let reused cs = List.assoc_opt "verify_reused" cs = Some 1
let ran cs = List.assoc_opt "verify_cycles" cs = Some 256

let strength_reduce =
  match Catalog.find "strength_reduce" with
  | Some m -> m
  | None -> failwith "strength_reduce not in the catalogue"

let step_exn ~seed subject =
  match Engine.apply_step ~seed strength_reduce ~arg:None subject with
  | Ok (s, _) -> s
  | Error e -> fail (Engine.error_to_string e)

let test_memo_reuse () =
  let subject = Subject.of_circuit (row_comb "rc_memo") in
  let (a, b), spans =
    verify_spans (fun () ->
        let a = step_exn ~seed:1001 subject in
        (a, step_exn ~seed:1001 subject))
  in
  check (list bool) "second verification reused" [ false; true ]
    (List.map reused spans);
  check (list bool) "first verification ran" [ true; false ]
    (List.map ran spans);
  check bool "both steps applied, same subject" true (a = b);
  check (list string) "history" [ "strength_reduce" ] b.Subject.history

let test_memo_two_domains () =
  let subject = Subject.of_circuit (row_comb "rc_memo2") in
  let results, spans =
    verify_spans (fun () ->
        let d = Domain.spawn (fun () -> step_exn ~seed:1002 subject) in
        let here = step_exn ~seed:1002 subject in
        [ here; Domain.join d ])
  in
  check int "two verify spans" 2 (List.length spans);
  check int "exactly one verification ran" 1
    (List.length (List.filter ran spans));
  check int "the other reused its verdict" 1
    (List.length (List.filter reused spans));
  match results with
  | [ a; b ] -> check bool "same subject on both domains" true (a = b)
  | _ -> fail "two results expected"

let test_memo_failures () =
  let s = Subject.of_circuit (row_comb "rc_memo_bad") in
  List.iter
    (fun (what, m) ->
      let reasons, spans =
        verify_spans (fun () ->
            List.init 2 (fun _ ->
                match Engine.apply_step ~seed:1003 m ~arg:None s with
                | Error (Engine.Verify_failed { vf_reason; _ }) -> vf_reason
                | Ok _ -> fail (what ^ " survived verification")
                | Error e -> fail (Engine.error_to_string e)))
      in
      check (list bool) (what ^ ": second call reused") [ false; true ]
        (List.map reused spans);
      match reasons with
      | [ r1; r2 ] -> check string (what ^ ": identical reason") r1 r2
      | _ -> fail "two reasons expected")
    [
      ("bad_reduce", (module Bad_reduce : Catalog.TRANSFO));
      ("wrong_latency", (module Wrong_latency : Catalog.TRANSFO));
    ]

(* Claims two port-suffixed copies but returns the circuit unchanged, so
   the obligation's checker raises on the first missing port. *)
module Raising_verify = struct
  let name = "raising_verify"
  let aliases = []
  let description = "deliberately broken (test only)"
  let precondition = "none"
  let arg = Catalog.No_arg
  let check ~arg:_ _ = Ok ()
  let apply ~arg:_ (s : Subject.t) = s
  let obligation ~arg:_ = Verify.Replicated 2
end

let test_memo_forgets_raises () =
  let s = Subject.of_circuit (row_comb "rc_memo_raise") in
  let reasons, spans =
    verify_spans (fun () ->
        List.init 2 (fun _ ->
            match
              Engine.apply_step ~seed:1004 (module Raising_verify) ~arg:None s
            with
            | Error (Engine.Verify_failed { vf_reason; _ }) -> vf_reason
            | Ok _ -> fail "a raising verification passed"
            | Error e -> fail (Engine.error_to_string e)))
  in
  check (list bool) "both calls verified" [ true; true ] (List.map ran spans);
  check (list bool) "nothing reused" [ false; false ] (List.map reused spans);
  List.iter
    (fun r ->
      check bool ("names the missing port: " ^ r) true (contains r "_r0");
      check bool ("as the first cycle's Sim.set: " ^ r) true
        (contains r "Sim.set: no input port"))
    reasons

(* ---------------- verification beside a spare domain ---------------- *)

(* The one result of a 1-item map: at [~jobs:2] the map lends its second
   domain, and the step's 4-lane crosscheck runs there. *)
let in_map ~jobs f =
  match Core.Parallel.map ~jobs f [ () ] with
  | [ r ] -> r
  | _ -> fail "one result expected"

(* The failure of one broken step at [~jobs:1] and beside a spare domain.
   A remembered failure would be reused, so the two runs verify circuits
   of different names unless the step raises (it is not remembered, and
   its reason names the circuit). *)
let test_fork_same_failures () =
  List.iter
    (fun (what, m, shared) ->
      let failure name =
        let s = Subject.of_circuit (row_comb name) in
        match Engine.apply_step ~seed:1005 m ~arg:None s with
        | Error (Engine.Verify_failed { vf_obligation; vf_reason; _ }) ->
            (vf_obligation, vf_reason)
        | Ok _ -> fail (what ^ " survived verification")
        | Error e -> fail (Engine.error_to_string e)
      in
      let name j = if shared then "rc_fork" else "rc_fork_j" ^ j in
      check (pair string string) what
        (in_map ~jobs:1 (fun () -> failure (name "1")))
        (in_map ~jobs:2 (fun () -> failure (name "2"))))
    [
      ("bad_reduce", (module Bad_reduce : Catalog.TRANSFO), false);
      ("wrong_latency", (module Wrong_latency : Catalog.TRANSFO), false);
      ("raising_verify", (module Raising_verify : Catalog.TRANSFO), true);
    ]

let test_fork_counts_once () =
  let subject = Subject.of_circuit (row_comb "rc_fork_count") in
  let _, spans =
    verify_spans (fun () ->
        in_map ~jobs:2 (fun () -> step_exn ~seed:1006 subject))
  in
  check int "the caller's span and the helper's" 2 (List.length spans);
  check int "one verification counted" 1
    (List.length (List.filter ran spans));
  check int "nothing reused" 0 (List.length (List.filter reused spans))

(* A failing or raising obligation drops the 4-lane check (a deferred
   one never runs); a passing step joins it.  The logging forker forks
   as the one Core.Kernel installs does. *)
let test_fork_dropped_on_failure () =
  let log = ref [] in
  Engine.set_forker
    {
      Engine.fork =
        (fun f ->
          let fk = Core.Parallel.fork f in
          ( (fun () ->
              log := "join" :: !log;
              Core.Parallel.join fk),
            fun () ->
              log := "drop" :: !log;
              Core.Parallel.drop fk ));
    };
  let outcome m name =
    log := [];
    ignore
      (Engine.apply_step ~seed:1007 m ~arg:None
         (Subject.of_circuit (row_comb name)));
    List.rev !log
  in
  check (list string) "failing obligation" [ "drop" ]
    (outcome (module Bad_reduce : Catalog.TRANSFO) "rc_fork_drop");
  check (list string) "raising obligation" [ "drop" ]
    (outcome (module Raising_verify : Catalog.TRANSFO) "rc_fork_drop");
  check (list string) "passing step" [ "join" ]
    (outcome strength_reduce "rc_fork_join")

(* ---------------- rederivation pin ---------------- *)

let test_rederive_chisel () =
  let hand =
    Chisel.Idct_gen.design_rowcol Chisel.Idct_gen.Inferred
      ~name:"chisel_optimized"
  in
  let subject =
    Subject.of_arch
      (Chisel.Idct_gen.arch Chisel.Idct_gen.Inferred ~name:"chisel_optimized"
         ())
  in
  let r = run_exn Core.Kernel.chisel_transfo_script subject in
  let derived = r.Engine.rep_subject.Subject.circuit in
  (* node-identical, not merely equivalent: every uid, kind, width, name,
     port and memory matches, so all downstream artifacts (Table II,
     Fig. 1, store digests) are byte-identical to the hand-written rung *)
  check bool "derived = hand-written (structural)" true (derived = hand);
  check (list string) "history" [ "fold_rows"; "fold_cols" ]
    r.Engine.rep_subject.Subject.history;
  (* the registry's optimized Chisel design now forces through this very
     derivation; a verification failure there would raise *)
  match (Core.Kernel.optimized Core.Kernel.idct Core.Design.Chisel).Core.Design.impl with
  | Core.Design.Stream l ->
      check bool "registry rederivation forces" true
        (Core.Design.force l = hand)
  | Core.Design.Pcie _ -> fail "chisel optimized is a stream design"

(* ---------------- property: random scripts stay clean ---------------- *)

(* Random combinational circuits seeded with constant products (the
   strength_reduce target), then a random applicable script.  The engine
   already discharges each step's obligation and crosschecks the result
   against the reference interpreter, so [Ok] here means the whole
   sequence verified. *)
let random_comb seed =
  let rng = Random.State.make [| seed; 0x7F23 |] in
  let widths = [| 2; 3; 7; 8; 12; 16; 24; 31; 33 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let b = Builder.create (Printf.sprintf "rnd%d" seed) in
  let pool = ref [] in
  let push s = pool := s :: !pool in
  let any () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let coerce w s =
    let ws = Builder.width s in
    if ws = w then s
    else if ws > w then Builder.slice b s ~hi:(w - 1) ~lo:0
    else if Random.State.bool rng then Builder.uext b s w
    else Builder.sext b s w
  in
  for i = 0 to 1 + Random.State.int rng 3 do
    push (Builder.input b (Printf.sprintf "i%d" i) (pick widths))
  done;
  for _ = 1 to 15 + Random.State.int rng 15 do
    let w = pick widths in
    let x () = coerce w (any ()) and y () = coerce w (any ()) in
    push
      (match Random.State.int rng 12 with
      | 0 -> Builder.add b (x ()) (y ())
      | 1 -> Builder.sub b (x ()) (y ())
      | 2 | 3 ->
          let span = 1 lsl min w 12 in
          let k = Random.State.int rng span - (span / 2) in
          Builder.mul b (Builder.const b ~width:w k) (x ())
      | 4 -> Builder.mul b (x ()) (y ())
      | 5 -> Builder.and_ b (x ()) (y ())
      | 6 -> Builder.or_ b (x ()) (y ())
      | 7 -> Builder.xor_ b (x ()) (y ())
      | 8 -> Builder.neg b (x ())
      | 9 -> Builder.mux b (coerce 1 (any ())) (x ()) (y ())
      | 10 -> Builder.sra b (x ()) (coerce 4 (any ()))
      | _ -> Builder.not_ b (x ()))
  done;
  List.iteri
    (fun i s -> Builder.output b (Printf.sprintf "o%d" i) s)
    (List.filteri (fun i _ -> i land 2 = 0) !pool);
  Builder.finalize b

(* Every entry is applicable to a combinational circuit; sequential
   producers (retime/outreg) only ever appear last. *)
let applicable_scripts =
  [|
    "strength_reduce";
    "narrow";
    "strength_reduce; narrow";
    "narrow; strength_reduce";
    "strength_reduce; narrow; outreg";
    "narrow; retime 2";
    "strength_reduce; unroll 2";
    "outreg";
    "retime 1";
    "unroll 3";
  |]

let transfo_script_prop =
  QCheck.Test.make ~name:"random applicable scripts verify clean"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let script =
        applicable_scripts.(seed mod Array.length applicable_scripts)
      in
      let subject = Subject.of_circuit (random_comb seed) in
      match
        Engine.run ~cycles:96 ~seed (Script.parse_exn script) subject
      with
      | Ok _ -> true
      | Error e ->
          QCheck.Test.fail_reportf "script %S on seed %d: %s" script seed
            (Engine.error_to_string e))

let () =
  Alcotest.run "transfo"
    [
      ( "script",
        [ test_case "parse and print" `Quick test_script_parse ] );
      ( "catalog",
        [ test_case "names, aliases, diagnostics" `Quick test_catalog ] );
      ( "steps",
        [
          test_case "retime" `Quick test_retime;
          test_case "outreg" `Quick test_outreg;
          test_case "strength_reduce" `Quick test_strength_reduce;
          test_case "narrow" `Quick test_narrow;
          test_case "strength_reduce then narrow on the row datapath" `Quick
            test_reduce_then_narrow;
          test_case "unroll" `Quick test_unroll;
        ] );
      ( "engine",
        [
          test_case "preconditions and diagnostics" `Quick test_preconditions;
          test_case "broken transformations are caught" `Quick
            test_broken_caught;
        ] );
      ( "memo",
        [
          test_case "a repeated step reuses its verdict" `Quick test_memo_reuse;
          test_case "two domains verify once" `Quick test_memo_two_domains;
          test_case "a remembered failure fails again" `Quick
            test_memo_failures;
          test_case "a raising verification is not remembered" `Quick
            test_memo_forgets_raises;
        ] );
      ( "rederive",
        [ test_case "chisel optimized = initial + script" `Quick
            test_rederive_chisel ] );
      ("property", [ QCheck_alcotest.to_alcotest transfo_script_prop ]);
      ( "fork",
        [
          test_case "failures are the same beside a spare domain" `Quick
            test_fork_same_failures;
          test_case "a forked verification is counted once" `Quick
            test_fork_counts_once;
          test_case "a failed check drops the fork" `Quick
            test_fork_dropped_on_failure;
        ] );
    ]
