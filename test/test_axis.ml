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
  (* The diagnostic of a one-matrix-per-lane run must carry the lane
     count and the progress summed over the lanes, and keep the "timeout
     after" marker the flow layer keys on. *)
  let b = Hw.Builder.create "dead" in
  ignore (Axis.Stream.declare_inputs b);
  Axis.Stream.expose_outputs b
    ~s_ready:(Hw.Builder.one b 1)
    ~m_valid:(Hw.Builder.zero b 1)
    ~m_last:(Hw.Builder.zero b 1)
    ~m_data:(Array.init 8 (fun _ -> Hw.Builder.zero b 9));
  let c = Hw.Builder.finalize b in
  match Axis.Driver.transform_batch c (mats 4) with
  | exception Failure msg ->
      check bool "mentions timeout after" true (contains msg "timeout after");
      check bool "mentions batch" true (contains msg "batch 4");
      check bool "mentions duty" true (contains msg "duty");
      check bool msg true
        (contains msg "collected 0/32 output beats (0/4 matrices)"
        && String.ends_with ~suffix:"consumed 32/32 input beats" msg)
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
  (* One matrix per lane ([transform_batch]) must reproduce per-matrix
     [transform] runs exactly, and so must a one-lane stream of the same
     matrices, under back-pressure and input gaps too.  The simulator
     itself is checked lane by lane against the reference interpreter on
     both testbench circuits. *)
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
  let want = List.map (Axis.Driver.transform c) inputs in
  check bool "transform_batch matches" true
    (List.for_all2 Axis.Block.equal (Axis.Driver.transform_batch c inputs) want);
  List.iter
    (fun (name, input_gap, ready_pattern) ->
      let r = Axis.Driver.run ~input_gap ~ready_pattern c inputs in
      check int (name ^ ": clean protocol") 0
        (List.length r.Axis.Driver.violations);
      check bool (name ^ ": same outputs") true
        (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs want))
    [
      ("plain", 0, fun _ -> true);
      ("back-pressure", 0, fun t -> t mod 3 = 0);
      ("gaps", 5, fun _ -> true);
      ("gaps + back-pressure", 3, fun t -> t mod 2 = 0);
    ];
  (* A protocol-violating master: [run] reports it, [transform_batch]
     raises the first violation of its lowest lane — the babbler ignores
     its input, so that is the violation a one-matrix [run] reports
     first. *)
  check bool "babbler violates" true
    ((Axis.Driver.run ~ready_pattern:(fun t -> t mod 3 = 0) (babbler ())
        (mats 2))
       .Axis.Driver.violations <> []);
  let first =
    List.hd (Axis.Driver.run (babbler ()) (mats 1)).Axis.Driver.violations
  in
  List.iter
    (fun n ->
      match Axis.Driver.transform_batch (babbler ()) (mats n) with
      | exception Axis.Driver.Protocol_violation v ->
          check bool
            (Printf.sprintf "babbler raises its first violation, %d lanes" n)
            true (v = first)
      | _ -> Alcotest.failf "babbler passed transform_batch, %d lanes" n)
    [ 1; 3; 70 ]

let test_transform_batch_chunks () =
  (* 130 matrices are two full 64-lane chunks plus a 2-matrix remainder.
     One staged closure runs 130, then 3, then 130 matrices: its 64-lane
     instance is reset between chunks and between calls, and the 2- and
     3-lane instances are built once each.  The kernel adds a free-running
     cycle counter to every sample, so a chunk that started from an
     earlier chunk's state would read different outputs than a fresh
     per-matrix run. *)
  let kernel b mid =
    let open Hw in
    let tick = Builder.reg b ~width:16 "tick" in
    Builder.connect b tick (Builder.add b tick (Builder.const b ~width:16 1));
    Array.map
      (fun s -> Builder.slice b (Builder.add b (Builder.sext b s 16) tick) ~hi:8 ~lo:0)
      mid
  in
  let c = Axis.Adapter.wrap_matrix_kernel ~name:"ticking" ~latency:0 ~kernel () in
  let calls = Hashtbl.create 4 in
  let hook k _ =
    Hashtbl.replace calls k (1 + Option.value ~default:0 (Hashtbl.find_opt calls k))
  in
  let transform = Axis.Driver.transform_batch ~hook c in
  let first = mats 130 in
  List.iter
    (fun (what, inputs) ->
      let got = transform inputs in
      let want = List.map (Axis.Driver.transform c) inputs in
      check int (what ^ ": outputs") (List.length inputs) (List.length got);
      check bool (what ^ ": same as per-matrix transform") true
        (List.for_all2 Axis.Block.equal got want);
      check bool (what ^ ": the counter shows in the output") false
        (List.for_all2 Axis.Block.equal want
           (List.map passthrough_expected inputs)))
    [
      ("130", first);
      ("then 3", List.rev (mats 3));
      ("then 130 again", List.rev first);
    ];
  check int "empty call" 0 (List.length (transform []));
  List.iter
    (fun k ->
      check int (k ^ " once per chunk") 7
        (Option.value ~default:0 (Hashtbl.find_opt calls k)))
    [ "sim_thunks"; "cycles"; "evals" ]

let test_run_no_matrices () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  Alcotest.check_raises "run []" (Invalid_argument "Driver.run: no matrices")
    (fun () -> ignore (Axis.Driver.run c []));
  check int "transform_batch [] is []" 0
    (List.length (Axis.Driver.transform_batch c []))

(* A one-beat buffer that holds each beat for a time read off its data
   (the low two bits of [s_data0]), so [m_valid] and [s_ready] depend on
   [s_data] and lanes fed different matrices fall out of step.  The
   driver must see that and give the simulator no uniform promise (with
   one, the lanes' [s_valid] rows would differ and [Sim.set_row] would
   raise); [transform_batch] still equals per-matrix [transform]. *)
let dawdler () =
  let open Hw in
  let b = Builder.create "dawdler" in
  let p = Axis.Stream.declare_inputs b in
  let have = Builder.reg b ~width:1 "have" in
  let wait = Builder.reg b ~width:2 "wait" in
  let s_ready = Builder.not_ b have in
  let accept = Builder.and_ b p.Axis.Stream.s_valid s_ready in
  let idle = Builder.eq b wait (Builder.zero b 2) in
  let m_valid = Builder.and_ b have idle in
  let fire = Builder.and_ b m_valid p.Axis.Stream.m_ready in
  Builder.connect b have
    (Builder.mux b accept (Builder.one b 1)
       (Builder.mux b fire (Builder.zero b 1) have));
  Builder.connect b wait
    (Builder.mux b accept
       (Builder.slice b p.Axis.Stream.s_data.(0) ~hi:1 ~lo:0)
       (Builder.mux b idle wait (Builder.sub b wait (Builder.one b 2))));
  let held name s width =
    let r = Builder.reg b ~enable:accept ~width name in
    Builder.connect b r (Builder.slice b s ~hi:(width - 1) ~lo:0);
    r
  in
  let last = held "last" p.Axis.Stream.s_last 1 in
  Axis.Stream.expose_outputs b ~s_ready ~m_valid
    ~m_last:(Builder.and_ b m_valid last)
    ~m_data:
      (Array.mapi
         (fun k s -> held (Printf.sprintf "data%d" k) s Axis.Stream.out_width)
         p.Axis.Stream.s_data);
  Builder.finalize b

let test_transform_batch_without_promise () =
  let c = dawdler () in
  let sim =
    Hw.Sim.create ~batch:4
      ~uniform:Axis.Stream.[ s_valid; s_last; m_ready ]
      c
  in
  List.iter
    (fun p ->
      check bool (p ^ " is not uniform") false
        (Hw.Sim.is_uniform sim (Hw.Sim.out_port sim p)))
    Axis.Stream.[ s_ready; m_valid ];
  let inputs = mats 70 in
  let want = List.map (Axis.Driver.transform c) inputs in
  check bool "lanes fall out of step" true
    (List.exists (fun m -> Axis.Block.get m ~row:0 ~col:0 land 3 <> 0) inputs
    && List.exists (fun m -> Axis.Block.get m ~row:0 ~col:0 land 3 = 0) inputs);
  check bool "transform_batch matches" true
    (List.for_all2 Axis.Block.equal (Axis.Driver.transform_batch c inputs) want)

(* The driver skips the lanes on a quiet cycle, one with no input left
   to drive and no [m_valid] or [m_last] up on it or the cycle before.
   A master that raises [m_valid] for one stalled cycle after the input
   is consumed, and drops it, must still be reported on the cycle after;
   then it sends one well-framed matrix of the number of beats it
   accepted, which must be the eight driven: once driven, the input rows
   stay low. *)
let test_quiet_cycle_after_stall () =
  let open Hw in
  let b = Builder.create "flicker" in
  let p = Axis.Stream.declare_inputs b in
  let beats = Builder.reg b ~enable:p.Axis.Stream.s_valid ~width:9 "beats" in
  Builder.connect b beats (Builder.add b beats (Builder.one b 9));
  let count = Builder.reg b ~width:6 "count" in
  Builder.connect b count (Builder.add b count (Builder.one b 6));
  let at n = Builder.eq b count (Builder.const b ~width:6 n) in
  let framing =
    Builder.and_ b
      (Builder.ge b ~signed:false count (Builder.const b ~width:6 30))
      (Builder.lt b ~signed:false count (Builder.const b ~width:6 38))
  in
  Axis.Stream.expose_outputs b ~s_ready:(Builder.one b 1)
    ~m_valid:(Builder.or_ b (at 20) framing) ~m_last:(at 37)
    ~m_data:(Array.make 8 beats);
  let r =
    Axis.Driver.run ~ready_pattern:(fun c -> c <> 20) (Builder.finalize b)
      (mats 1)
  in
  check bool "eight beats accepted" true
    (List.for_all
       (fun m -> Axis.Block.get m ~row:7 ~col:7 = 8)
       r.Axis.Driver.outputs);
  check
    (Alcotest.list Alcotest.string)
    "the dropped beat"
    [ "cycle 21: m_valid deasserted while a beat was stalled" ]
    (List.map
       (Format.asprintf "%a" Axis.Monitor.pp_violation)
       r.Axis.Driver.violations)

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
          Alcotest.test_case "transform_batch across chunks" `Quick
            test_transform_batch_chunks;
          Alcotest.test_case "run on no matrices" `Quick test_run_no_matrices;
          Alcotest.test_case "data-dependent handshake gets no promise" `Quick
            test_transform_batch_without_promise;
          Alcotest.test_case "a quiet cycle after a stall reaches the monitor"
            `Quick test_quiet_cycle_after_stall;
        ] );
    ]
