(* Remaining corner coverage: Bits printing/order, simulator peeks, the
   driver's timing measurement, BSV urgency arbitration, DSLX casts, MaxJ
   manager arithmetic, Chen-Wang constants, and metric edge cases. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_bits_pp_order () =
  check bool "pp" true (Hw.Bits.to_string (Hw.Bits.create ~width:8 255) = "8'd255");
  let a = Hw.Bits.create ~width:4 3 and b = Hw.Bits.create ~width:4 5 in
  check bool "compare by value" true (Hw.Bits.compare a b < 0);
  check bool "compare by width first" true
    (Hw.Bits.compare (Hw.Bits.create ~width:3 7) a < 0);
  check bool "ones" true (Hw.Bits.to_int (Hw.Bits.ones 5) = 31);
  check bool "bit" true (Hw.Bits.bit (Hw.Bits.create ~width:4 0b0100) 2)

let test_sim_peeks () =
  let b = Hw.Builder.create "pk" in
  let x = Hw.Builder.input b "x" 4 in
  let n = Hw.Builder.neg b x in
  Hw.Builder.output b "o" n;
  let c = Hw.Builder.finalize b in
  let sim = Hw.Sim.create c in
  Hw.Sim.set sim "x" 1;
  check int "peek unsigned" 15 (Hw.Sim.peek sim (Hw.Netlist.find_output c "o"));
  check int "peek signed" (-1)
    (Hw.Sim.peek_signed sim (Hw.Netlist.find_output c "o"));
  check int "get_signed" (-1) (Hw.Sim.get_signed sim "o")

let test_chenwang_constants () =
  (* W_k = round(2048 * sqrt(2) * cos(k*pi/16)) for k=1, and
     round(2048 * 2 * cos(k*pi/16) / sqrt(2))... the standard table. *)
  let w k = 2048. *. sqrt 2. *. cos (float_of_int k *. Float.pi /. 16.) in
  check int "w1" (int_of_float (Float.round (w 1))) Idct.Chenwang.w1;
  check int "w2" (int_of_float (Float.round (w 2))) Idct.Chenwang.w2;
  check int "w3" (int_of_float (Float.round (w 3))) Idct.Chenwang.w3;
  check int "w5" (int_of_float (Float.round (w 5))) Idct.Chenwang.w5;
  check int "w6" (int_of_float (Float.round (w 6))) Idct.Chenwang.w6;
  check int "w7" (int_of_float (Float.round (w 7))) Idct.Chenwang.w7;
  check int "iclip low" (-256) (Idct.Chenwang.iclip (-1000));
  check int "iclip high" 255 (Idct.Chenwang.iclip 1000);
  check int "iclip pass" 42 (Idct.Chenwang.iclip 42)

let test_driver_latency_measure () =
  (* A purely pass-through wrapper must report latency 17 regardless of
     how many matrices precede the measured one. *)
  let kernel b mid =
    Array.map
      (fun s -> Hw.Builder.slice b (Hw.Builder.sext b s 16) ~hi:8 ~lo:0)
      mid
  in
  let c = Axis.Adapter.wrap_matrix_kernel ~name:"lat" ~latency:0 ~kernel () in
  let mats n =
    let rng = Axis.Block.Rand.create ~seed:n () in
    List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-100) ~hi:100)
  in
  List.iter
    (fun n ->
      let r = Axis.Driver.run c (mats n) in
      check int (Printf.sprintf "latency with %d matrices" n) 17
        r.Axis.Driver.latency)
    [ 1; 2; 5 ]

let test_bsv_urgency_order () =
  (* Two conflicting always-enabled writers: declaration order arbitrates;
     reversing urgency flips the winner. *)
  let open Bsv.Lang in
  let build () =
    let bld = builder "u" in
    let x = mk_reg bld "x" 8 in
    mk_rule bld "first" ~guard:(cst 1 1) [ assign x (cst 8 11) ];
    mk_rule bld "second" ~guard:(cst 1 1) [ assign x (cst 8 22) ];
    mk_output bld "o" (read x);
    mk_module bld
  in
  let value options =
    let sim = Hw.Sim.create (Bsv.Compile.compile ~options (build ())) in
    Hw.Sim.step sim;
    Hw.Sim.get sim "o"
  in
  check int "declared order: first wins" 11 (value Bsv.Options.default);
  check int "reversed: second wins" 22
    (value { Bsv.Options.default with Bsv.Options.urgency = Bsv.Options.Reversed })

let test_bsv_aggressive_conditions () =
  (* With -aggressive-conditions, a rule whose only action is disabled
     stops blocking a lower-urgency conflicting rule. *)
  let open Bsv.Lang in
  let build () =
    let bld = builder "agg" in
    let x = mk_reg bld "x" 8 in
    mk_rule bld "noop" ~guard:(cst 1 1)
      [ assign ~when_:(cst 1 0) x (cst 8 1) ];
    mk_rule bld "real" ~guard:(cst 1 1) [ assign x (cst 8 9) ];
    mk_output bld "o" (read x);
    mk_module bld
  in
  let value aggressive =
    let options = { Bsv.Options.default with Bsv.Options.aggressive_conditions = aggressive } in
    let sim = Hw.Sim.create (Bsv.Compile.compile ~options (build ())) in
    Hw.Sim.step sim;
    Hw.Sim.get sim "o"
  in
  check int "conservative: noop blocks" 0 (value false);
  check int "aggressive: real rule fires" 9 (value true)

let test_dslx_cast_semantics () =
  let open Dslx.Ir in
  let p cast_to sg =
    {
      fns =
        [
          {
            fname = "top";
            params = [ { pname = "x"; pty = Bits 8 } ];
            ret = Bits cast_to;
            body = Cast (Var "x", cast_to, sg);
          };
        ];
      top = "top";
    }
  in
  check int "sext" 0xFFF0 (List.hd (Dslx.Lower.interpret (p 16 `Signed) [ 0xF0 ]));
  check int "uext" 0x00F0 (List.hd (Dslx.Lower.interpret (p 16 `Unsigned) [ 0xF0 ]));
  check int "truncate" 0x0 (List.hd (Dslx.Lower.interpret (p 4 `Unsigned) [ 0xF0 ]))

let test_manager_arithmetic () =
  let s = Maxj.Manager.build ~depth:10 ~kernel:(Maxj.Idct_maxj.initial_kernel ()) ~ticks_per_op:1 () in
  check int "payload bits" 1024 s.Maxj.Manager.bits_per_op;
  let r = Maxj.Manager.evaluate s in
  (* 15.75e9 / 128 bytes = 123.05 MOPS *)
  check bool "pcie rate" true (abs_float (r.Maxj.Manager.throughput_mops -. 123.05) < 0.05);
  check int "latency adds turnaround" 12 r.Maxj.Manager.latency_ticks

let test_metrics_quality_units () =
  let m =
    {
      Core.Metrics.fmax_mhz = 80.;
      throughput_mops = 10.;
      latency = 24;
      periodicity = 8;
      area = 10_000;
      luts_nodsp = 9_000;
      ffs_nodsp = 1_000;
      luts = 5_000;
      ffs = 1_000;
      dsps = 20;
      ios = 176;
    }
  in
  (* 10 MOPS / 10_000 = 1000 OPS per LUT+FF *)
  check bool "quality units" true
    (abs_float (Core.Metrics.quality m -. 1000.) < 1e-6)

let test_loc_comment_styles () =
  check int "c++ comments" 1 (Core.Loc.count "// x\ncode;\n");
  check int "vhdl comments" 1 (Core.Loc.count "-- x\ncode;\n");
  check int "c block single line" 1 (Core.Loc.count "/* x */\ncode;\n");
  check int "blank heavy" 2 (Core.Loc.count "\n\n a \n\n\n b \n")

let test_design_names () =
  check bool "language names" true
    (Core.Design.language_name Core.Design.Bambu = "C"
    && Core.Design.language_name Core.Design.Vivado_hls = "C");
  check int "seven tools" 7 (List.length Core.Design.all_tools)

let () =
  Alcotest.run "misc"
    [
      ( "hw",
        [
          Alcotest.test_case "bits pp and order" `Quick test_bits_pp_order;
          Alcotest.test_case "sim peeks" `Quick test_sim_peeks;
        ] );
      ( "idct",
        [
          Alcotest.test_case "chen-wang constants" `Quick test_chenwang_constants;
        ] );
      ( "axis",
        [
          Alcotest.test_case "latency measurement" `Quick test_driver_latency_measure;
        ] );
      ( "bsv",
        [
          Alcotest.test_case "urgency arbitration" `Quick test_bsv_urgency_order;
          Alcotest.test_case "aggressive conditions" `Quick test_bsv_aggressive_conditions;
        ] );
      ( "dslx",
        [ Alcotest.test_case "cast semantics" `Quick test_dslx_cast_semantics ] );
      ( "maxj",
        [ Alcotest.test_case "manager arithmetic" `Quick test_manager_arithmetic ] );
      ( "core",
        [
          Alcotest.test_case "quality units" `Quick test_metrics_quality_units;
          Alcotest.test_case "loc comment styles" `Quick test_loc_comment_styles;
          Alcotest.test_case "design names" `Quick test_design_names;
        ] );
    ]
