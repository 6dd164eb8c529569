(* The resilience layer (DESIGN.md §11): typed Flow errors for every
   failure class, keep-going sweep semantics, atomic trace writes and the
   stats diagnostics.  Every fault here is injected through
   Core.Faultinject with a fixed seed — nothing depends on wall clock or
   scheduling. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then false
    else if String.sub s i m = sub then true
    else at (i + 1)
  in
  m = 0 || at 0

let victim_design = Core.Kernel.initial idct Core.Design.Verilog
let victim_key = Core.Flow.span_key victim_design

(* Arm [spec], run the measurement, expect a typed Flow.Error and hand
   it to [examine]; the spec is disarmed whatever happens. *)
let expect_error spec examine =
  Core.Faultinject.arm spec;
  Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
      match Core.Flow.measure_uncached ~spec:Core.Flow.idct_spec ~matrices:3 victim_design with
      | _ -> Alcotest.fail "expected a typed Flow.Error"
      | exception Core.Flow.Error err -> examine err)

(* ---------------- the error taxonomy, one class at a time ------------ *)

let test_poison_not_bit_true () =
  expect_error
    { Core.Faultinject.fault = Poison; target = victim_key; seed = 1 }
    (fun err ->
      check string "design" victim_key err.Core.Flow.err_design;
      check string "stage" "verify" err.Core.Flow.err_stage;
      match err.Core.Flow.err_class with
      | Core.Flow.Not_bit_true { block_index; got; expected } ->
          (* seed 1 over 3 simulated matrices poisons block 1 mod 3. *)
          check int "first mismatching block" 1 block_index;
          check bool "got excerpt present" true (got <> "");
          check bool "expected excerpt present" true (expected <> "")
      | c ->
          Alcotest.fail
            ("expected not-bit-true, got " ^ Core.Flow.class_name c))

let test_protocol_violation () =
  expect_error
    { Core.Faultinject.fault = Protocol; target = victim_key; seed = 5 }
    (fun err ->
      check string "stage" "verify" err.Core.Flow.err_stage;
      match err.Core.Flow.err_class with
      | Core.Flow.Protocol_violation msg ->
          check bool "carries the monitor verdict" true
            (contains ~sub:"injected protocol fault" msg)
      | c ->
          Alcotest.fail
            ("expected protocol-violation, got " ^ Core.Flow.class_name c))

let test_stall_times_out () =
  expect_error
    { Core.Faultinject.fault = Stall; target = victim_key; seed = 0 }
    (fun err ->
      check string "stage" "simulate" err.Core.Flow.err_stage;
      match err.Core.Flow.err_class with
      | Core.Flow.Sim_timeout msg ->
          (* The stall is reported by the driver's own timeout path. *)
          check bool "driver timeout message" true
            (contains ~sub:"timeout after" msg)
      | c ->
          Alcotest.fail ("expected sim-timeout, got " ^ Core.Flow.class_name c))

let test_crash_classification () =
  let crash stage examine =
    expect_error
      { Core.Faultinject.fault = Crash stage; target = victim_key; seed = 0 }
      (fun err ->
        check string "stage" stage err.Core.Flow.err_stage;
        examine err.Core.Flow.err_class)
  in
  crash "elaborate" (function
    | Core.Flow.Engine_failure _ -> ()
    | c -> Alcotest.fail ("elaborate: " ^ Core.Flow.class_name c));
  crash "simulate" (function
    | Core.Flow.Engine_failure _ -> ()
    | c -> Alcotest.fail ("simulate: " ^ Core.Flow.class_name c));
  crash "synthesize" (function
    | Core.Flow.Synth_failure _ -> ()
    | c -> Alcotest.fail ("synthesize: " ^ Core.Flow.class_name c));
  crash "metrics" (function
    | Core.Flow.Unexpected _ -> ()
    | c -> Alcotest.fail ("metrics: " ^ Core.Flow.class_name c))

let test_error_rendering () =
  let err =
    {
      Core.Flow.err_design = "Verilog/initial";
      err_stage = "verify";
      err_class =
        Core.Flow.Not_bit_true
          { block_index = 2; got = "row 0 [1 2]"; expected = "[1 3]" };
    }
  in
  let text = Core.Flow.error_to_string err in
  check bool "one canonical rendering" true
    (contains ~sub:"Verilog/initial" text
    && contains ~sub:"verify" text
    && contains ~sub:"not-bit-true" text
    && contains ~sub:"block 2" text);
  (* The registered exception printer emits the same text. *)
  check string "Printexc agrees" text
    (Printexc.to_string (Core.Flow.Error err));
  let summary = Core.Flow.render_failure_summary [ err ] in
  check bool "summary counts and lists the point" true
    (contains ~sub:"1 design point" summary
    && contains ~sub:"Verilog/initial" summary
    && contains ~sub:"not-bit-true" summary)

let test_summary_aligns_long_keys () =
  (* The design column is as wide as the longest key, so every row's
     stage and class start where the header's do. *)
  let err design =
    {
      Core.Flow.err_design = design;
      err_stage = "synthesize";
      err_class = Core.Flow.Synth_failure "boom";
    }
  in
  let lines =
    String.split_on_char '\n'
      (Core.Flow.render_failure_summary
         [
           err "Vivado/initial";
           err "Vivado HLS/INLINE+ARRAY_PARTITION+PIPELINE_II8";
         ])
  in
  let column line word =
    let n = String.length line and m = String.length word in
    let rec at i =
      if i + m > n then -1
      else if String.sub line i m = word then i
      else at (i + 1)
    in
    at 0
  in
  match lines with
  | _ :: header :: rows ->
      List.iter
        (fun row ->
          if row <> "" then begin
            check int "stage column aligned" (column header "stage")
              (column row "synthesize");
            check int "class column aligned" (column header "class")
              (column row "synth-failure")
          end)
        rows
  | _ -> Alcotest.fail "summary has no header"

(* ---------------- keep-going sweeps ---------------- *)

let every_elaborate_crashes =
  { Core.Faultinject.fault = Crash "elaborate"; target = ""; seed = 0 }

let test_keep_going_sweep () =
  let designs = Core.Kernel.sweep idct Core.Design.Verilog in
  (* Target a point whose span key is not a substring of any sibling's,
     so exactly one point is hit. *)
  let victim =
    List.find
      (fun d ->
        let k = Core.Flow.span_key d in
        1
        = List.length
            (List.filter
               (fun d' -> contains ~sub:k (Core.Flow.span_key d'))
               designs))
      designs
  in
  let vkey = Core.Flow.span_key victim in
  Core.Evaluate.clear_measure_cache ();
  Core.Faultinject.arm
    { Core.Faultinject.fault = Poison; target = vkey; seed = 0 };
  let faulted =
    Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
        Core.Evaluate.measure_all_result ~spec:Core.Flow.idct_spec ~jobs:2 ~matrices:3 designs)
  in
  Core.Evaluate.clear_measure_cache ();
  let clean =
    let rs =
      Core.Evaluate.measure_all_result ~spec:Core.Flow.idct_spec ~jobs:2
        ~matrices:3 designs
    in
    Core.Flow.fail_fast (List.filter_map Result.to_option rs, Core.Flow.errors rs)
  in
  check int "one outcome per design" (List.length designs)
    (List.length faulted);
  List.iteri
    (fun i (d, (r, m)) ->
      let key = Core.Flow.span_key d in
      if key = vkey then
        match r with
        | Error e ->
            check string "failure attributed to the poisoned point" vkey
              e.Core.Flow.err_design;
            check string "typed as not-bit-true" "not-bit-true"
              (Core.Flow.class_name e.Core.Flow.err_class)
        | Ok _ -> Alcotest.fail "the poisoned point must fail"
      else
        match r with
        | Ok got ->
            check bool
              (Printf.sprintf "survivor %d identical to fault-free run" i)
              true (got = m)
        | Error e ->
            Alcotest.fail
              (Printf.sprintf "unexpected failure on %s: %s" key
                 (Core.Flow.error_to_string e)))
    (List.map2 (fun d (r, m) -> (d, (r, m))) designs
       (List.map2 (fun r m -> (r, m)) faulted clean))

let test_keep_going_all_run () =
  (* Unlike the fail-fast map, a keep-going batch measures every point
     even when an early one fails: no Ok slot is missing. *)
  let designs = Core.Kernel.sweep idct Core.Design.Chisel in
  let first_key = Core.Flow.span_key (List.hd designs) in
  Core.Evaluate.clear_measure_cache ();
  Core.Faultinject.arm
    { Core.Faultinject.fault = Crash "synthesize"; target = first_key; seed = 0 };
  let outcomes =
    Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
        Core.Evaluate.measure_all_result ~spec:Core.Flow.idct_spec ~jobs:1 ~matrices:3 designs)
  in
  Core.Evaluate.clear_measure_cache ();
  let oks = List.filter (function Ok _ -> true | Error _ -> false) outcomes in
  check int "every other point measured" (List.length designs - 1)
    (List.length oks);
  (match List.hd outcomes with
  | Error e ->
      check string "typed as synth-failure" "synth-failure"
        (Core.Flow.class_name e.Core.Flow.err_class)
  | Ok _ -> Alcotest.fail "first point must fail");
  (* When no point survives at all, the figure says so instead of
     printing infinite axis bounds. *)
  Core.Faultinject.arm every_elaborate_crashes;
  let series, failures =
    Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
        Core.Fig1.compute_result ~jobs:1 ~tools:[ Core.Design.Verilog ] ())
  in
  let text = Core.Fig1.render_series series in
  check int "every Verilog point failed" 3 (List.length failures);
  check bool "no infinite bounds" false (contains ~sub:"area: inf" text);
  check bool "plain no-points range line" true
    (contains ~sub:"area: no points   throughput: no points\n" text)

let test_compliance_keeps_going () =
  (* crash@comply fails one compliance check; its batch-mates still get
     their verdicts, and the failure is typed and attributed. *)
  let kernel = Option.get (Core.Kernel.parse_kernel "fir8") in
  let designs =
    List.map (Core.Kernel.optimized kernel) (Core.Kernel.tools kernel)
  in
  let victim = Core.Flow.span_key (List.nth designs 1) in
  Core.Faultinject.arm
    { Core.Faultinject.fault = Crash "comply"; target = victim; seed = 0 };
  let outcomes =
    Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
        Core.Evaluate.compliance_all_result ~jobs:2 ~blocks:16
          ~spec:(Core.Kernel.spec kernel) designs)
  in
  check int "exactly one failure" 1
    (List.length (Core.Flow.errors (List.map snd outcomes)));
  List.iter
    (fun (d, r) ->
      match r with
      | Error e ->
          check string "only the victim fails" victim e.Core.Flow.err_design;
          check string "typed at the comply stage" "comply"
            e.Core.Flow.err_stage;
          check string "engine failure" "engine-failure"
            (Core.Flow.class_name e.Core.Flow.err_class)
      | Ok ok ->
          check bool "survivor passes" true ok;
          check bool "victim must fail" false (Core.Flow.span_key d = victim))
    outcomes;
  (* A testbench that runs out of budget inside the comply stage is a
     simulation timeout, like one inside simulate. *)
  match
    Core.Flow.stage ~spec:(Core.Kernel.spec kernel) (List.hd designs) "comply"
      (fun () -> failwith "Driver.run(x): timeout after 9 cycles")
  with
  | () -> Alcotest.fail "the stage must raise"
  | exception Core.Flow.Error e ->
      check string "timeout stage" "comply" e.Core.Flow.err_stage;
      check string "timeout class" "sim-timeout"
        (Core.Flow.class_name e.Core.Flow.err_class)

let test_compliance_protocol_violation () =
  (* A master that never frames ([m_last] stuck low) fails compliance
     through the testbench's own monitor: a protocol-violation at the
     comply stage, attributed to it alone. *)
  let kernel = Option.get (Core.Kernel.parse_kernel "fir8") in
  let good = Core.Kernel.optimized kernel (List.hd (Core.Kernel.tools kernel)) in
  let unframed () =
    let b = Hw.Builder.create "unframed" in
    ignore (Axis.Stream.declare_inputs b);
    Axis.Stream.expose_outputs b ~s_ready:(Hw.Builder.one b 1)
      ~m_valid:(Hw.Builder.one b 1) ~m_last:(Hw.Builder.zero b 1)
      ~m_data:(Array.init 8 (fun _ -> Hw.Builder.zero b 9));
    Hw.Builder.finalize b
  in
  let bad =
    {
      good with
      Core.Design.label = "unframed";
      impl =
        Core.Design.Stream
          (Core.Design.cell good.Core.Design.tool "unframed" unframed);
    }
  in
  match
    Core.Evaluate.compliance_all_result ~jobs:1 ~blocks:16
      ~spec:(Core.Kernel.spec kernel) [ good; bad ]
  with
  | [ (_, Ok true); (_, Error e) ] ->
      check string "attributed" (Core.Flow.span_key bad) e.Core.Flow.err_design;
      check string "typed at the comply stage" "comply" e.Core.Flow.err_stage;
      check string "protocol violation" "protocol-violation"
        (Core.Flow.class_name e.Core.Flow.err_class);
      check bool "carries the monitor verdict" true
        (contains ~sub:"missing m_last on beat 8"
           (Core.Flow.class_detail e.Core.Flow.err_class))
  | _ -> Alcotest.fail "expected the good design to pass and the bad to fail"

let test_compliance_poison () =
  (* The measure path's poison probe reaches the compliance checker too: a
     corrupted block fails the targeted design's verdict, on the batched
     stream path and on the PCIe path alike, and no other design's. *)
  let with_poison d f =
    Core.Faultinject.arm
      { Core.Faultinject.fault = Poison; target = Core.Flow.span_key d; seed = 3 };
    Fun.protect ~finally:Core.Faultinject.disarm f
  in
  let kernel = Option.get (Core.Kernel.parse_kernel "fir8") in
  let designs =
    List.map (Core.Kernel.optimized kernel) (Core.Kernel.tools kernel)
  in
  let verdicts =
    with_poison (List.hd designs) (fun () ->
        Core.Evaluate.compliance_all_result ~jobs:1 ~blocks:16
          ~spec:(Core.Kernel.spec kernel) designs)
  in
  check (Alcotest.list bool) "only the victim fails" [ false; true; true ]
    (List.map
       (function _, Ok v -> v | _, Error _ -> Alcotest.fail "no typed error")
       verdicts);
  let maxj = Core.Kernel.optimized idct Core.Design.Maxj in
  check bool "PCIe design poisoned" false
    (with_poison maxj (fun () ->
         Core.Evaluate.check_compliance ~blocks:4 ~spec:Core.Flow.idct_spec maxj))

(* ---------------- the compliance schedule ---------------- *)

let test_compliance_schedule_order () =
  (* Pass 2 claims designs costliest first (Bambu's testbench is the
     longest), yet every design's slot, in input order, is the same at
     every job count and in either input order. *)
  let kernel = Option.get (Core.Kernel.parse_kernel "fir8") in
  let designs =
    List.map (Core.Kernel.optimized kernel) (Core.Kernel.tools kernel)
  in
  let slots ~jobs designs =
    Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
        Core.Faultinject.arm
          { Core.Faultinject.fault = Poison; target = "Bambu"; seed = 0 };
        List.map
          (fun (d, r) ->
            ( Core.Flow.span_key d,
              match r with
              | Ok v -> string_of_bool v
              | Error e -> Core.Flow.render_failure_summary [ e ] ))
          (Core.Evaluate.compliance_all_result ~jobs ~blocks:16
             ~spec:(Core.Kernel.spec kernel) designs))
  in
  let slot = Alcotest.(list (pair string string)) in
  let serial = slots ~jobs:1 designs in
  check (Alcotest.list string) "input order"
    (List.map Core.Flow.span_key designs)
    (List.map fst serial);
  check (Alcotest.list string) "only Bambu is poisoned"
    [ "true"; "true"; "false" ]
    (List.map snd serial);
  List.iter
    (fun jobs ->
      check slot (Printf.sprintf "-j %d" jobs) serial (slots ~jobs designs);
      check slot
        (Printf.sprintf "-j %d, reversed input" jobs)
        (List.rev serial)
        (slots ~jobs (List.rev designs)))
    [ 1; 2; 3 ]

(* ---------------- artifacts cache nothing of their own ---------------- *)

let test_artifacts_recompute_after_clear () =
  (* Fig1 and Table2 are pure functions over the measurement memo: once
     the memo is cleared, a fault armed against every design must
     surface instead of a stale artifact. *)
  let verilog = [ Core.Design.Verilog ] in
  ignore (Core.Fig1.compute ~jobs:1 ~tools:verilog ());
  ignore (Core.Table2.compute ~jobs:1 ());
  Core.Evaluate.clear_measure_cache ();
  Core.Faultinject.arm every_elaborate_crashes;
  Fun.protect ~finally:Core.Faultinject.disarm (fun () ->
      let expect_elaborate_error name f =
        match f () with
        | () -> Alcotest.fail (name ^ " served a stale result")
        | exception Core.Flow.Error e ->
            check string (name ^ " fails at elaborate") "elaborate"
              e.Core.Flow.err_stage
      in
      expect_elaborate_error "fig1" (fun () ->
          ignore (Core.Fig1.compute ~jobs:1 ~tools:verilog ()));
      expect_elaborate_error "table2" (fun () ->
          ignore (Core.Table2.compute ~jobs:1 ())));
  (* The clear also forgets the simulations shared between design points:
     a re-measure runs the driver again. *)
  let d = Core.Kernel.initial Core.Kernel.idct Core.Design.Verilog in
  let measure () = ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec d) in
  measure ();
  Core.Evaluate.clear_measure_cache ();
  Core.Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Core.Trace.set_enabled false) measure;
  let simulate =
    List.filter (fun s -> s.Core.Trace.stage = "simulate") (Core.Trace.drain ())
  in
  check int "one simulate span" 1 (List.length simulate);
  check bool "the re-measure simulated" true
    (List.mem_assoc "cycles" (List.hd simulate).Core.Trace.counters)

(* ---------------- fault-spec parsing ---------------- *)

let test_parse_specs () =
  (match Core.Faultinject.parse "poison" with
  | Ok s ->
      check bool "bare fault targets everything" true
        (s.Core.Faultinject.target = "" && s.Core.Faultinject.seed = 0);
      check string "round trip" "poison:*:0" (Core.Faultinject.to_string s)
  | Error e -> Alcotest.fail e);
  (match Core.Faultinject.parse "crash@synthesize:Verilog:3" with
  | Ok { Core.Faultinject.fault = Crash "synthesize"; target = "Verilog"; seed = 3 }
    -> ()
  | Ok s -> Alcotest.fail ("misparsed: " ^ Core.Faultinject.to_string s)
  | Error e -> Alcotest.fail e);
  (match Core.Faultinject.parse "stall:*" with
  | Ok { Core.Faultinject.fault = Stall; target = ""; _ } -> ()
  | _ -> Alcotest.fail "star target must match everything");
  let bad text fragment =
    match Core.Faultinject.parse text with
    | Ok _ -> Alcotest.fail ("accepted bad spec " ^ text)
    | Error e -> check bool ("diagnostic for " ^ text) true (contains ~sub:fragment e)
  in
  bad "" "empty fault spec";
  bad "meteor:*" "unknown fault";
  bad "engine-crash:*" "unknown fault";
  bad "poison:x:-1" "bad seed"

(* ---------------- atomic writes and stats diagnostics ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_write_atomic () =
  let path = Filename.temp_file "hlsvhc_atomic" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Core.Trace.write_atomic path (fun oc -> output_string oc "complete");
      check string "written through the rename" "complete" (read_file path);
      (* A crashing emitter leaves the previous content untouched... *)
      (match
         Core.Trace.write_atomic path (fun oc ->
             output_string oc "torn";
             failwith "emitter died")
       with
      | () -> Alcotest.fail "emitter exception must propagate"
      | exception Failure _ -> ());
      check string "old content survives a torn write" "complete"
        (read_file path);
      (* ...and no temp sibling is left behind. *)
      let base = Filename.basename path ^ ".tmp" in
      let litter =
        Array.exists
          (fun f -> contains ~sub:base f)
          (Sys.readdir (Filename.dirname path))
      in
      check bool "no temp litter" false litter)

let test_stats_diagnostics () =
  (* Missing file: a clean Sys_error, which the CLI turns into exit 1. *)
  (match Core.Trace.load_json "/nonexistent/hlsvhc-trace.json" with
  | _ -> Alcotest.fail "missing file must not parse"
  | exception Sys_error _ -> ());
  (* Empty file: the recording process died before the atomic rename. *)
  let tmp = Filename.temp_file "hlsvhc_empty" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      match Core.Trace.load_json tmp with
      | _ -> Alcotest.fail "empty file must not parse"
      | exception Failure m ->
          check bool "names the file and the cause" true
            (contains ~sub:tmp m && contains ~sub:"empty trace" m));
  (* Truncated JSON: a diagnostic, not a crash. *)
  let tmp = Filename.temp_file "hlsvhc_trunc" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc "{ \"spans\": [ { \"design\"");
      match Core.Trace.load_json tmp with
      | _ -> Alcotest.fail "truncated file must not parse"
      | exception Failure m ->
          check bool "failure names the file" true (contains ~sub:tmp m));
  (* The nested one-tree-per-design format of earlier versions: the
     reader names the file, line 1 and the token it expected. *)
  let tmp = Filename.temp_file "hlsvhc_nested" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc
            "{\n  \"trace\": \"hlsvhc design flow\",\n  \"spans\": 1,\n\
            \  \"designs\": [\n    {\"design\": \"pool\",\n     \"tree\": [\n\
            \      {\"stage\": \"map\", \"start_ms\": 0.000, \"dur_ms\": \
             1.000}\n     ]}\n  ]\n}\n");
      match Core.Trace.load_json tmp with
      | _ -> Alcotest.fail "nested trace must not parse"
      | exception Failure m ->
          check bool ("names the file and line 1: " ^ m) true
            (contains ~sub:(tmp ^ ":1:") m && contains ~sub:"expected" m))

let () =
  (* Nothing here may depend on an ambient spec. *)
  Core.Faultinject.disarm ();
  Alcotest.run "faults"
    [
      ( "classes",
        [
          Alcotest.test_case "poison -> not-bit-true" `Quick
            test_poison_not_bit_true;
          Alcotest.test_case "protocol violation" `Quick
            test_protocol_violation;
          Alcotest.test_case "stall -> sim-timeout" `Quick
            test_stall_times_out;
          Alcotest.test_case "crash@stage classification" `Quick
            test_crash_classification;
          Alcotest.test_case "canonical rendering" `Quick test_error_rendering;
          Alcotest.test_case "summary aligns long keys" `Quick
            test_summary_aligns_long_keys;
        ] );
      ( "keep-going",
        [
          Alcotest.test_case "survivors byte-identical" `Slow
            test_keep_going_sweep;
          Alcotest.test_case "early failure aborts nothing" `Quick
            test_keep_going_all_run;
          Alcotest.test_case "compliance keeps going" `Quick
            test_compliance_keeps_going;
          Alcotest.test_case "compliance catches a protocol violation" `Quick
            test_compliance_protocol_violation;
          Alcotest.test_case "compliance sees poisoned blocks" `Quick
            test_compliance_poison;
        ] );
      ( "caches",
        [
          Alcotest.test_case "artifacts recompute after clear" `Quick
            test_artifacts_recompute_after_clear;
        ] );
      ( "spec",
        [ Alcotest.test_case "parse and round-trip" `Quick test_parse_specs ] );
      ( "io",
        [
          Alcotest.test_case "atomic writes" `Quick test_write_atomic;
          Alcotest.test_case "stats diagnostics" `Quick test_stats_diagnostics;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "compliance slots independent of claim order"
            `Quick test_compliance_schedule_order;
        ] );
    ]
