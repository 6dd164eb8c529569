(* Cross-cutting integration tests: FSM state accounting vs. measured
   periodicity, array views through the full flow, Fig. 1 machinery, the
   stream convention, and gapped/back-pressured streaming of every
   adapter style. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mats n =
  let rng = Axis.Block.Rand.create ~seed:81 () in
  List.init n (fun _ ->
      Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))

(* ---------------- FSM state accounting ---------------- *)

let test_cycles_are_periodicity () =
  (* For the fully sequential HLS designs the schedule's cycle count
     (compute + interface regions) equals the measured periodicity at full
     throughput, and the FSM's distinct-state count is much smaller (loops
     revisit their states). *)
  let opts = Chls.Transform.default_options in
  let cfg = Chls.Schedule.default_config in
  let circuit =
    Chls.Tool.sequential_circuit ~name:"sc" cfg opts Chls.Idct_c.program
  in
  let sched =
    Chls.Schedule.schedule cfg
      (let p = Chls.Transform.lower opts Chls.Idct_c.program in
       {
         p with
         Chls.Transform.vars = p.Chls.Transform.vars @ Chls.Tool.io_vars;
         regions =
           Chls.Tool.io_load_regions "blk"
           @ p.Chls.Transform.regions
           @ Chls.Tool.io_store_regions "blk";
       })
  in
  let cycles = Chls.Schedule.total_cycles sched in
  let states = Chls.Fsm.state_count sched in
  let r = Axis.Driver.run ~timeout:20000 circuit (mats 3) in
  check int "schedule cycles = periodicity" cycles r.Axis.Driver.periodicity;
  check bool "far fewer states than cycles" true (states * 4 < cycles)

(* ---------------- array views end to end ---------------- *)

let test_view_strides () =
  (* A program that doubles a column through a stride-8 view: checks view
     index arithmetic through transform + schedule + fsm. *)
  let open Chls.Ast in
  let scale_fn =
    {
      fname = "scale";
      params = [ PArray ("col", short_t, 8) ];
      ret = None;
      locals = [ ("j", int_t) ];
      arrays = [];
      body =
        [
          For
            {
              ivar = "j";
              bound = 8;
              body =
                [
                  Store
                    ( "col",
                      Var "j",
                      Bin (Mul, Load ("col", Var "j"), Int 2) );
                ];
            };
        ];
    }
  in
  let top =
    {
      fname = "top";
      params = [ PArray ("blk", short_t, 64) ];
      ret = None;
      locals = [ ("i", int_t) ];
      arrays = [];
      body =
        [
          For
            {
              ivar = "i";
              bound = 8;
              body = [ CallStmt ("scale", [ AView ("blk", Var "i", 8) ]) ];
            };
        ];
    }
  in
  let program = { funcs = [ scale_fn; top ]; top = "top" } in
  let circuit =
    Chls.Tool.sequential_circuit ~name:"views" Chls.Schedule.default_config
      Chls.Transform.default_options program
  in
  let input = Array.init 64 (fun i -> (i mod 100) - 50) in
  let expected = Array.copy input in
  ignore (Chls.Ast.interp program "top" ~args:[ `Arr expected ]);
  let r = Axis.Driver.run ~timeout:20000 circuit [ input ] in
  check bool "hardware = interpreter through views" true
    (Axis.Block.equal (List.hd r.Axis.Driver.outputs) expected)

let test_view_composition_in_interp () =
  (* nested views: f passes a view of its own view parameter *)
  let open Chls.Ast in
  let inner =
    {
      fname = "inner";
      params = [ PArray ("a", short_t, 2) ];
      ret = None;
      locals = [];
      arrays = [];
      body = [ Store ("a", Int 0, Int 7) ];
    }
  in
  let middle =
    {
      fname = "middle";
      params = [ PArray ("b", short_t, 4) ];
      ret = None;
      locals = [];
      arrays = [];
      body = [ CallStmt ("inner", [ AView ("b", Int 2, 1) ]) ];
    }
  in
  let top =
    {
      fname = "top";
      params = [ PArray ("blk", short_t, 8) ];
      ret = None;
      locals = [];
      arrays = [];
      body = [ CallStmt ("middle", [ AView ("blk", Int 4, 1) ]) ];
    }
  in
  let p = { funcs = [ inner; middle; top ]; top = "top" } in
  let arr = Array.make 8 0 in
  ignore (interp p "top" ~args:[ `Arr arr ]);
  check int "write lands at 4+2" 7 arr.(6)

(* ---------------- stream convention ---------------- *)

let test_is_wrapped () =
  let d = Core.Kernel.optimized idct Core.Design.Verilog in
  (match d.Core.Design.impl with
  | Core.Design.Stream c ->
      check bool "wrapped design recognized" true
        (Axis.Stream.is_wrapped (Core.Design.force c))
  | Core.Design.Pcie _ -> assert false);
  let b = Hw.Builder.create "bare" in
  Hw.Builder.output b "y" (Hw.Builder.input b "x" 4);
  check bool "bare circuit is not wrapped" false
    (Axis.Stream.is_wrapped (Hw.Builder.finalize b))

(* ---------------- robustness of every adapter style ---------------- *)

let designs_under_test () =
  [
    ("verilog rowcol", Core.Kernel.optimized idct Core.Design.Verilog);
    ("chisel comb", Core.Kernel.initial idct Core.Design.Chisel);
    ("bsv optimized", Core.Kernel.optimized idct Core.Design.Bsv);
    ("xls 4-stage",
     Core.
       {
         (Kernel.optimized idct Design.Dslx) with
         Design.impl =
           Design.Stream
             (Design.cell Design.Dslx "it4" (fun () ->
                  Dslx.Idct_dslx.design ~stages:4
                    ~kernel:(Dslx.Idct_dslx.kernel_circuit ())
                    ~name:"it4" ()));
       });
  ]

let test_backpressure_everywhere () =
  let inputs = mats 3 in
  let expected = List.map Idct.Chenwang.idct inputs in
  List.iter
    (fun (name, d) ->
      match d.Core.Design.impl with
      | Core.Design.Stream c ->
          let r =
            Axis.Driver.run
              ~ready_pattern:(fun t -> t mod 5 <> 0)
              (Core.Design.force c) inputs
          in
          check bool (name ^ " correct under backpressure") true
            (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected);
          check int (name ^ " protocol clean") 0
            (List.length r.Axis.Driver.violations)
      | Core.Design.Pcie _ -> ())
    (designs_under_test ())

let test_gaps_everywhere () =
  let inputs = mats 3 in
  let expected = List.map Idct.Chenwang.idct inputs in
  List.iter
    (fun (name, d) ->
      match d.Core.Design.impl with
      | Core.Design.Stream c ->
          let r = Axis.Driver.run ~input_gap:7 (Core.Design.force c) inputs in
          check bool (name ^ " correct with inter-matrix gaps") true
            (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected)
      | Core.Design.Pcie _ -> ())
    (designs_under_test ())

(* ---------------- fig1 machinery ---------------- *)

let test_fig1_subset () =
  let series = Core.Fig1.compute ~tools:[ Core.Design.Maxj ] () in
  (match series with
  | [ s ] ->
      check int "two MaxJ points" 2 (List.length s.Core.Fig1.points);
      List.iter
        (fun (p : Core.Fig1.point) ->
          check bool "positive throughput" true (p.throughput_mops > 0.))
        s.Core.Fig1.points
  | _ -> Alcotest.fail "expected one series");
  let txt = Core.Fig1.render_series series in
  check bool "render mentions MaxJ" true (String.length txt > 100)

let test_table1_rows () =
  check int "seven rows" 7 (List.length Core.Table1.rows);
  let r = List.hd Core.Table1.rows in
  check bool "verilog first" true (r.Core.Table1.language = "Verilog")

let () =
  Alcotest.run "integration"
    [
      ( "hls accounting",
        [
          Alcotest.test_case "schedule cycles = periodicity" `Slow
            test_cycles_are_periodicity;
        ] );
      ( "views",
        [
          Alcotest.test_case "stride-8 views in hardware" `Slow test_view_strides;
          Alcotest.test_case "view composition" `Quick test_view_composition_in_interp;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "is_wrapped" `Quick test_is_wrapped;
          Alcotest.test_case "backpressure everywhere" `Slow test_backpressure_everywhere;
          Alcotest.test_case "gaps everywhere" `Slow test_gaps_everywhere;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "fig1 subset" `Quick test_fig1_subset;
          Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        ] );
    ]
