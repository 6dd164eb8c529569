(* Tests for the AXI-Stream substrate: protocol monitor, adapters under
   back-pressure and input gaps, latency/periodicity measurement. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains msg needle =
  let nl = String.length needle and hl = String.length msg in
  let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

let sample ~cycle ~valid ~ready ~last data =
  { Axis.Monitor.cycle; valid; ready; last; data = Array.make 8 data }

let eight_beats ?(start = 0) () =
  List.init 8 (fun i ->
      sample ~cycle:(start + i) ~valid:true ~ready:true ~last:(i = 7) i)

let test_monitor_clean () =
  check int "no violations" 0 (List.length (Axis.Monitor.check (eight_beats ())))

let test_monitor_stability () =
  let trace =
    [
      sample ~cycle:0 ~valid:true ~ready:false ~last:false 1;
      sample ~cycle:1 ~valid:true ~ready:true ~last:false 2 (* data changed *);
    ]
  in
  let v = Axis.Monitor.check trace in
  check bool "detects unstable data" true
    (List.exists
       (fun (x : Axis.Monitor.violation) ->
         x.rule = "m_data changed while a beat was stalled")
       v)

let test_monitor_drop_valid () =
  let trace =
    [
      sample ~cycle:0 ~valid:true ~ready:false ~last:false 1;
      sample ~cycle:1 ~valid:false ~ready:false ~last:false 1;
    ]
  in
  check bool "detects dropped valid" true
    (Axis.Monitor.check trace
    |> List.exists (fun (x : Axis.Monitor.violation) ->
           x.rule = "m_valid deasserted while a beat was stalled"))

let test_monitor_framing () =
  let bad =
    List.init 8 (fun i ->
        (* last on beat 5 instead of 8 *)
        sample ~cycle:i ~valid:true ~ready:true ~last:(i = 4) i)
  in
  check bool "detects bad framing" true (Axis.Monitor.check bad <> [])

(* The online monitor against the list-based reference: random
   handshakes where the data and last of consecutive samples often agree
   (so stalls are both held and broken), through one reused data buffer
   as the driver feeds it. *)
let online_matches_check_prop =
  let gen_sample =
    QCheck.Gen.(
      map
        (fun (valid, ready, last, (x, k, y)) ->
          let data = Array.init 8 (fun i -> if i = k then y else x) in
          (valid, ready, last, data))
        (quad (frequencyl [ (3, true); (1, false) ]) bool
           (frequencyl [ (1, true); (3, false) ])
           (triple (int_range 0 1) (int_range 0 9) (int_range 0 1))))
  in
  let to_samples l =
    List.mapi
      (fun i (valid, ready, last, data) ->
        { Axis.Monitor.cycle = 2 * i; valid; ready; last; data })
      l
  in
  QCheck.Test.make ~name:"online monitor = Monitor.check" ~count:500
    (QCheck.make
       ~print:(fun l ->
         String.concat "; "
           (List.map
              (fun (v, r, l, d) ->
                Printf.sprintf "%b/%b/%b/%s" v r l
                  (String.concat "," (Array.to_list (Array.map string_of_int d))))
              l))
       QCheck.Gen.(list_size (int_range 0 40) gen_sample))
    (fun l ->
      let samples = to_samples l in
      let m = Axis.Monitor.online () in
      let buf = Array.make 8 0 in
      List.iter
        (fun (s : Axis.Monitor.sample) ->
          Array.blit s.data 0 buf 0 8;
          Axis.Monitor.observe m ~cycle:s.cycle ~valid:s.valid ~ready:s.ready
            ~last:s.last buf;
          Array.fill buf 0 8 (-1))
        samples;
      Axis.Monitor.violations m = Axis.Monitor.check samples)

(* A trivial pass-through kernel for adapter tests: out = clip of input. *)
let passthrough_kernel b mid =
  Array.map
    (fun s ->
      let open Hw in
      Builder.slice b (Builder.sext b s 16) ~hi:8 ~lo:0)
    mid

let passthrough_expected blk =
  Array.map
    (fun v ->
      let x = v land 0x1FF in
      if x land 0x100 <> 0 then x - 0x200 else x)
    blk

let mats n =
  let rng = Axis.Block.Rand.create ~seed:3 () in
  List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-100) ~hi:100)

let test_wrap_matrix_kernel_basic () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 5 in
  let r = Axis.Driver.run c inputs in
  check int "latency 17" 17 r.Axis.Driver.latency;
  check int "periodicity 8" 8 r.Axis.Driver.periodicity;
  check int "clean protocol" 0 (List.length r.Axis.Driver.violations);
  List.iter2
    (fun got input ->
      check bool "payload" true
        (Axis.Block.equal got (passthrough_expected input)))
    r.Axis.Driver.outputs inputs

let test_wrap_matrix_kernel_backpressure () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 4 in
  (* sink accepts only every third cycle *)
  let r = Axis.Driver.run ~ready_pattern:(fun t -> t mod 3 = 0) c inputs in
  check int "clean under backpressure" 0 (List.length r.Axis.Driver.violations);
  List.iter2
    (fun got input ->
      check bool "payload under backpressure" true
        (Axis.Block.equal got (passthrough_expected input)))
    r.Axis.Driver.outputs inputs

let test_wrap_matrix_kernel_gaps () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 3 in
  let r = Axis.Driver.run ~input_gap:5 c inputs in
  check int "gapped stream is clean" 0 (List.length r.Axis.Driver.violations);
  check int "gap shows in periodicity" 13 r.Axis.Driver.periodicity

let test_wrap_row_col_structure () =
  let mode = Chisel.Idct_gen.verilog_mode in
  let c = Chisel.Idct_gen.design_rowcol mode ~name:"rc" in
  let inputs =
    List.map Idct.Reference.fdct (mats 5)
  in
  let r = Axis.Driver.run c inputs in
  check int "latency 24" 24 r.Axis.Driver.latency;
  check int "periodicity 8" 8 r.Axis.Driver.periodicity;
  let expected = List.map Idct.Chenwang.idct inputs in
  check bool "bit true" true
    (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected)

let test_wrap_row_col_backpressure () =
  let mode = Chisel.Idct_gen.verilog_mode in
  let c = Chisel.Idct_gen.design_rowcol mode ~name:"rc" in
  let inputs = List.map Idct.Reference.fdct (mats 3) in
  let r = Axis.Driver.run ~ready_pattern:(fun t -> t mod 2 = 0) c inputs in
  let expected = List.map Idct.Chenwang.idct inputs in
  check bool "bit true under backpressure" true
    (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected);
  check int "protocol clean" 0 (List.length r.Axis.Driver.violations)

let test_pipelined_kernel_wrap () =
  (* A latency-3 kernel through the pipelined hand-off path. *)
  let kernel b mid =
    let open Hw in
    Array.map
      (fun s ->
        let r1 = Builder.reg_next b s in
        let r2 = Builder.reg_next b r1 in
        let r3 = Builder.reg_next b r2 in
        Builder.slice b (Builder.sext b r3 16) ~hi:8 ~lo:0)
      mid
  in
  let c = Axis.Adapter.wrap_matrix_kernel ~name:"lat3" ~latency:3 ~kernel () in
  let inputs = mats 4 in
  let r = Axis.Driver.run c inputs in
  check int "latency 17+3" 20 r.Axis.Driver.latency;
  List.iter2
    (fun got input ->
      check bool "payload through pipe" true
        (Axis.Block.equal got (passthrough_expected input)))
    r.Axis.Driver.outputs inputs

let test_driver_timeout () =
  (* A circuit that never produces output must raise, not hang. *)
  let b = Hw.Builder.create "dead" in
  let p = Axis.Stream.declare_inputs b in
  ignore p;
  Axis.Stream.expose_outputs b
    ~s_ready:(Hw.Builder.one b 1)
    ~m_valid:(Hw.Builder.zero b 1)
    ~m_last:(Hw.Builder.zero b 1)
    ~m_data:(Array.init 8 (fun _ -> Hw.Builder.zero b 9));
  let c = Hw.Builder.finalize b in
  (match Axis.Driver.run ~timeout:200 c (mats 1) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected timeout");
  (* Without a cap, the stall watchdog ends the run: the input is
     accepted, then nothing moves for 2000 cycles. *)
  match Axis.Driver.run c (mats 1) with
  | exception Failure msg ->
      check bool msg true
        (contains msg "timeout after 2008 cycles, the last 2000 without a handshake"
        && String.ends_with ~suffix:"consumed 8/8 input beats" msg)
  | _ -> Alcotest.fail "expected the watchdog to fire"

let test_driver_timeout_reports_batch () =
  (* The diagnostic must carry the lane count and per-lane progress, and
     keep the "timeout after" marker the flow layer keys on. *)
  let b = Hw.Builder.create "dead" in
  ignore (Axis.Stream.declare_inputs b);
  Axis.Stream.expose_outputs b
    ~s_ready:(Hw.Builder.one b 1)
    ~m_valid:(Hw.Builder.zero b 1)
    ~m_last:(Hw.Builder.zero b 1)
    ~m_data:(Array.init 8 (fun _ -> Hw.Builder.zero b 9));
  let c = Hw.Builder.finalize b in
  match Axis.Driver.run ~batch:4 ~timeout:200 c (mats 8) with
  | exception Failure msg ->
      check bool "mentions timeout after" true (contains msg "timeout after");
      check bool "mentions batch" true (contains msg "batch 4");
      check bool "mentions duty" true (contains msg "duty")
  | _ -> Alcotest.fail "expected timeout"

(* A master that never waits and never frames: [m_valid] stuck high,
   [m_last] stuck low and the data a free-running counter, so every
   stalled beat changes under the monitor. *)
let babbler () =
  let b = Hw.Builder.create "babbler" in
  ignore (Axis.Stream.declare_inputs b);
  let count = Hw.Builder.reg b ~width:9 "count" in
  Hw.Builder.connect b count
    (Hw.Builder.add b count (Hw.Builder.const b ~width:9 1));
  Axis.Stream.expose_outputs b ~s_ready:(Hw.Builder.one b 1)
    ~m_valid:(Hw.Builder.one b 1) ~m_last:(Hw.Builder.zero b 1)
    ~m_data:(Array.make 8 count);
  Hw.Builder.finalize b

let test_driver_batched_matches_sequential () =
  (* Lane-parallel runs must reproduce the sequential outputs exactly,
     for every split of matrices across lanes (including uneven ones),
     under back-pressure and input gaps too.  The simulator itself is
     checked lane by lane against the reference interpreter on both
     testbench circuits. *)
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  List.iter
    (fun (name, circuit) ->
      match Hw.Equiv.crosscheck ~lanes:3 circuit with
      | Hw.Equiv.Equivalent -> ()
      | r ->
          Alcotest.failf "%s: simulator vs interpreter: %a" name
            Hw.Equiv.pp_result r)
    [ ("passthrough", c); ("babbler", babbler ()) ];
  let inputs = mats 7 in
  let seq = Axis.Driver.run c inputs in
  let stimuli =
    [
      ("plain", 0, fun _ -> true);
      ("back-pressure", 0, fun t -> t mod 3 = 0);
      ("gaps", 5, fun _ -> true);
      ("gaps + back-pressure", 3, fun t -> t mod 2 = 0);
    ]
  in
  List.iter
    (fun batch ->
      List.iter
        (fun (name, input_gap, ready_pattern) ->
          let what = Printf.sprintf "batch %d, %s" batch name in
          let r =
            Axis.Driver.run ~batch ~input_gap ~ready_pattern c inputs
          in
          check int (what ^ ": clean protocol") 0
            (List.length r.Axis.Driver.violations);
          check bool (what ^ ": same outputs") true
            (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs
               seq.Axis.Driver.outputs))
        stimuli)
    [ 1; 3; 7; 16 ];
  (* A protocol-violating master is reported at every batch width. *)
  List.iter
    (fun batch ->
      let r =
        Axis.Driver.run ~batch ~ready_pattern:(fun t -> t mod 3 = 0)
          (babbler ()) (mats 2)
      in
      check bool
        (Printf.sprintf "babbler violates, batch %d" batch)
        true
        (r.Axis.Driver.violations <> []))
    [ 1; 2 ];
  (* transform_batch is the one-matrix-per-lane convenience wrapper *)
  let got = Axis.Driver.transform_batch c inputs in
  check bool "transform_batch matches" true
    (List.for_all2 Axis.Block.equal got seq.Axis.Driver.outputs)

let () =
  Alcotest.run "axis"
    [
      ( "monitor",
        [
          Alcotest.test_case "clean trace" `Quick test_monitor_clean;
          Alcotest.test_case "stability violation" `Quick test_monitor_stability;
          Alcotest.test_case "dropped valid" `Quick test_monitor_drop_valid;
          Alcotest.test_case "framing" `Quick test_monitor_framing;
          QCheck_alcotest.to_alcotest online_matches_check_prop;
        ] );
      ( "adapters",
        [
          Alcotest.test_case "matrix kernel basics" `Quick test_wrap_matrix_kernel_basic;
          Alcotest.test_case "back-pressure" `Quick test_wrap_matrix_kernel_backpressure;
          Alcotest.test_case "input gaps" `Quick test_wrap_matrix_kernel_gaps;
          Alcotest.test_case "row/col engine" `Quick test_wrap_row_col_structure;
          Alcotest.test_case "row/col back-pressure" `Quick test_wrap_row_col_backpressure;
          Alcotest.test_case "pipelined kernel" `Quick test_pipelined_kernel_wrap;
          Alcotest.test_case "driver timeout" `Quick test_driver_timeout;
          Alcotest.test_case "timeout reports batch" `Quick
            test_driver_timeout_reports_batch;
          Alcotest.test_case "batched run == sequential run" `Quick
            test_driver_batched_matches_sequential;
        ] );
    ]
