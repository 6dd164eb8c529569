(* Tests for the MaxJ streaming substrate: kernel eDSL, auto-pipelining,
   the PCIe manager model and the two IDCT kernels. *)

let check = Alcotest.check
let bool = Alcotest.bool

let test_kernel_pipelining () =
  (* A feed-forward kernel gets register ranks inserted; depth > 0 and the
     per-stage delay meets the stream clock. *)
  let k = Maxj.Kernel.create "ff" in
  let x = Maxj.Kernel.input k "x" 12 in
  let y = Maxj.Kernel.mulc k 2841 x in
  let z = Maxj.Kernel.add k y (Maxj.Kernel.mulc k 1108 x) in
  Maxj.Kernel.output k "y" (Maxj.Kernel.cast k z 24);
  let c = Maxj.Kernel.finalize k in
  let depth = Maxj.Kernel.pipeline_depth c in
  check bool "pipelined" true (depth >= 1);
  let t = Hw.Timing.analyze Hw.Device.xcvu9p c in
  check bool "meets a reasonable clock" true (t.Hw.Timing.period_ns < 5.0)

let mats n =
  let rng = Axis.Block.Rand.create ~seed:51 () in
  List.init n (fun _ ->
      Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))

let test_initial_kernel_bit_true () =
  let inputs = mats 6 in
  let got = Maxj.Idct_maxj.simulate_initial (Maxj.Idct_maxj.initial_system ()) inputs in
  check bool "bit-true" true
    (List.for_all2 Axis.Block.equal got (List.map Idct.Chenwang.idct inputs))

let test_opt_kernel_bit_true () =
  let inputs = mats 6 in
  let got = Maxj.Idct_maxj.simulate_opt (Maxj.Idct_maxj.opt_system ()) inputs in
  check bool "bit-true" true
    (List.for_all2 Axis.Block.equal got (List.map Idct.Chenwang.idct inputs))

let test_initial_system_pcie_bound () =
  let r = Maxj.Manager.evaluate (Maxj.Idct_maxj.initial_system ()) in
  check bool "PCIe bound (paper IV-E)" true r.Maxj.Manager.pcie_bound;
  (* 15.75 GB/s over 1024-bit matrices = 123 MOPS, the paper's number *)
  check bool "throughput = link rate" true
    (abs_float (r.Maxj.Manager.throughput_mops -. 123.05) < 0.1)

let test_opt_system_compute_bound () =
  let r = Maxj.Manager.evaluate (Maxj.Idct_maxj.opt_system ()) in
  check bool "frequency bound" true (not r.Maxj.Manager.pcie_bound);
  let ri = Maxj.Manager.evaluate (Maxj.Idct_maxj.initial_system ()) in
  check bool "lower throughput than initial" true
    (r.Maxj.Manager.throughput_mops < ri.Maxj.Manager.throughput_mops)

let test_opt_kernel_smaller () =
  let a_init =
    (Hw.Synth.run (Maxj.Idct_maxj.initial_kernel ())).Hw.Synth.area
  in
  let a_opt = (Hw.Synth.run (Maxj.Idct_maxj.opt_kernel ())).Hw.Synth.area in
  (* the paper reports roughly 2.8x; ours is in the same direction *)
  check bool "optimized kernel at least 2x smaller" true
    (float_of_int a_init /. float_of_int a_opt > 2.0)

let test_stream_clock_cap () =
  let r = Maxj.Manager.evaluate (Maxj.Idct_maxj.initial_system ()) in
  check bool "fmax capped at the stream clock" true
    (r.Maxj.Manager.fmax_mhz <= Maxj.Manager.max_stream_clock_mhz +. 1e-9)

let () =
  Alcotest.run "maxj"
    [
      ( "kernel",
        [
          Alcotest.test_case "auto pipelining" `Quick test_kernel_pipelining;
        ] );
      ( "idct",
        [
          Alcotest.test_case "matrix kernel bit-true" `Slow test_initial_kernel_bit_true;
          Alcotest.test_case "row kernel bit-true" `Slow test_opt_kernel_bit_true;
        ] );
      ( "manager",
        [
          Alcotest.test_case "initial is PCIe bound" `Quick test_initial_system_pcie_bound;
          Alcotest.test_case "optimized is compute bound" `Quick test_opt_system_compute_bound;
          Alcotest.test_case "optimized kernel smaller" `Quick test_opt_kernel_smaller;
          Alcotest.test_case "stream clock cap" `Quick test_stream_clock_cap;
        ] );
    ]
