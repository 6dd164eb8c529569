(* Integration tests for the paper-level claims: the metrics library, the
   design registry and the invariants of Table II / Fig. 1. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- LOC metric ---------------- *)

let test_loc_count () =
  let src = "a;\n\n// comment only\nb;\n  \nc; // trailing comment\n" in
  check int "counts code lines" 3 (Core.Loc.count src)

let test_loc_delta () =
  check int "identical" 0 (Core.Loc.delta "a;\nb;" "b;\na;");
  check int "one added" 1 (Core.Loc.delta "a;" "a;\nb;");
  check int "one changed = add + remove" 2 (Core.Loc.delta "a;" "b;");
  check int "comments ignored" 0 (Core.Loc.delta "a;" "// c\na;")

(* ---------------- metric formulas ---------------- *)

let test_formulas () =
  check bool "automation of equal loc is zero" true
    (abs_float (Core.Metrics.automation ~verilog_loc:100 ~loc:100) < 1e-9);
  check bool "automation of half loc is 50%" true
    (abs_float (Core.Metrics.automation ~verilog_loc:100 ~loc:50 -. 50.) < 1e-9);
  check bool "controllability anchor" true
    (abs_float (Core.Metrics.controllability ~best:7. ~verilog_best:7. -. 100.) < 1e-9);
  check bool "flexibility" true
    (abs_float (Core.Metrics.flexibility ~best:10. ~initial:4. ~delta_loc:3 -. 2.) < 1e-9);
  check bool "flexibility zero dL" true
    (Core.Metrics.flexibility ~best:10. ~initial:4. ~delta_loc:0 = 0.)

(* ---------------- registry / designs ---------------- *)

let test_every_design_measures () =
  (* Every initial/optimized design is functional, protocol-clean and
     synthesizable: Evaluate.measure raises otherwise. *)
  List.iter
    (fun d ->
      let m = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
      check bool
        (Printf.sprintf "%s %s has positive quality"
           (Core.Design.tool_name d.Core.Design.tool)
           d.Core.Design.label)
        true
        (Core.Metrics.quality m > 0.))
    (List.concat_map
       (fun t ->
         [ Core.Kernel.initial idct t; Core.Kernel.optimized idct t ])
       (Core.Kernel.tools idct))

let test_sweep_sizes () =
  let size t = List.length (Core.Kernel.sweep idct t) in
  check int "Verilog 3 designs" 3 (size Core.Design.Verilog);
  check int "Chisel 3 designs" 3 (size Core.Design.Chisel);
  check int "BSC 26 circuits" 26 (size Core.Design.Bsv);
  check int "XLS 19 circuits" 19 (size Core.Design.Dslx);
  check int "MaxJ 2 kernels" 2 (size Core.Design.Maxj);
  check int "Bambu 42 configurations" 42 (size Core.Design.Bambu);
  check int "Vivado HLS ladder" 5 (size Core.Design.Vivado_hls)

let test_table2_invariants () =
  let rows = Core.Table2.compute () in
  let find tool =
    List.find (fun (r : Core.Table2.row) -> r.tool = tool) rows
  in
  let verilog = find Core.Design.Verilog in
  (* alpha of the baseline is zero by definition *)
  check bool "alpha_V = 0" true (abs_float verilog.initial.alpha < 1e-9);
  check bool "C_Q(V) = 100%" true
    (abs_float (verilog.controllability -. 100.) < 1e-9);
  (* every optimized design beats (or at least matches) its initial one,
     except where the paper itself shows a regression is impossible *)
  List.iter
    (fun (r : Core.Table2.row) ->
      if r.tool <> Core.Design.Maxj then
        check bool
          (Core.Design.tool_name r.tool ^ ": optimization pays")
          true
          (r.optimized.quality >= r.initial.quality))
    rows;
  (* paper shape: Bambu is the least controllable tool *)
  let bambu = find Core.Design.Bambu in
  List.iter
    (fun (r : Core.Table2.row) ->
      if r.tool <> Core.Design.Bambu then
        check bool "Bambu has the lowest C_Q" true
          (bambu.controllability <= r.controllability))
    rows;
  (* paper shape: MaxJ tops raw throughput (PCIe beats AXI-Stream) *)
  let maxj = find Core.Design.Maxj in
  List.iter
    (fun (r : Core.Table2.row) ->
      check bool "MaxJ initial has the highest throughput" true
        (maxj.initial.measured.Core.Metrics.throughput_mops
        >= r.initial.measured.Core.Metrics.throughput_mops))
    rows;
  (* paper shape: XLS and Vivado HLS are the most flexible tools *)
  let flex = List.map (fun (r : Core.Table2.row) -> (r.tool, r.flexibility)) rows in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) flex in
  let top2 = [ fst (List.nth sorted 0); fst (List.nth sorted 1) ] in
  check bool "XLS among the two most flexible" true
    (List.mem Core.Design.Dslx top2);
  check bool "Vivado HLS among the two most flexible" true
    (List.mem Core.Design.Vivado_hls top2);
  (* paper shape: the optimized RTL designs all land at periodicity 8,
     BSV at 9 (the scheduling bubble) *)
  check int "Verilog periodicity" 8 verilog.optimized.measured.Core.Metrics.periodicity;
  check int "BSV periodicity 9" 9
    (find Core.Design.Bsv).optimized.measured.Core.Metrics.periodicity;
  (* paper shape: push-button HLS is orders of magnitude below RTL *)
  check bool "Bambu quality well below Verilog" true
    (bambu.optimized.quality < 0.2 *. verilog.optimized.quality)

let test_verilog_loc_near_paper () =
  (* Our hand-written baseline should be in the ballpark of the paper's
     247/316 lines — a sanity check that the LOC pipeline is sane. *)
  let li = Core.Design.loc (Core.Kernel.initial idct Core.Design.Verilog) in
  let lo = Core.Design.loc (Core.Kernel.optimized idct Core.Design.Verilog) in
  check bool "initial in [180, 320]" true (li >= 180 && li <= 320);
  check bool "optimized in [180, 360]" true (lo >= 180 && lo <= 360)

let test_compliance_of_optimized_designs () =
  (* IEEE 1180 through the gate-level wrappers.  500 blocks per condition
     is roughly the statistical minimum for the mean-error criteria. *)
  List.iter
    (fun tool ->
      check bool
        (Core.Design.tool_name tool ^ " optimized complies")
        true
        (Core.Evaluate.check_compliance ~spec:Core.Flow.idct_spec ~blocks:500 (Core.Kernel.optimized idct tool)))
    [ Core.Design.Verilog; Core.Design.Vivado_hls ]

let () =
  Alcotest.run "paper"
    [
      ( "loc",
        [
          Alcotest.test_case "count" `Quick test_loc_count;
          Alcotest.test_case "delta" `Quick test_loc_delta;
        ] );
      ("metrics", [ Alcotest.test_case "formulas" `Quick test_formulas ]);
      ( "registry",
        [
          Alcotest.test_case "all designs measurable" `Slow test_every_design_measures;
          Alcotest.test_case "sweep sizes" `Quick test_sweep_sizes;
          Alcotest.test_case "verilog loc sanity" `Quick test_verilog_loc_near_paper;
        ] );
      ( "table2",
        [
          Alcotest.test_case "invariants" `Slow test_table2_invariants;
          Alcotest.test_case "gate-level compliance" `Slow test_compliance_of_optimized_designs;
        ] );
    ]
