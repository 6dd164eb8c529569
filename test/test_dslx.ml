(* Tests for the DSLX front end: type checking, elaboration vs. the
   reference interpreter, dynamic indexing, loops and the pipeline knob. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

open Dslx.Ir

let fn name params ret body = { fname = name; params; ret; body }
let b32 = Bits 32
let lit v = Lit { width = 32; value = v }

let test_typecheck_ok () =
  let p =
    {
      fns =
        [
          fn "double"
            [ { pname = "x"; pty = b32 } ]
            b32
            (Bin (Hw.Netlist.Add, Var "x", Var "x"));
        ];
      top = "double";
    }
  in
  check bool "ok" true (Result.is_ok (Dslx.Typecheck.check_program p))

let expect_error p =
  match Dslx.Typecheck.check_program p with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a type error"

let test_typecheck_errors () =
  (* width mismatch *)
  expect_error
    {
      fns =
        [
          fn "bad" [ { pname = "x"; pty = Bits 8 } ] (Bits 8)
            (Bin (Hw.Netlist.Add, Var "x", lit 1));
        ];
      top = "bad";
    };
  (* unbound variable *)
  expect_error { fns = [ fn "bad" [] b32 (Var "nope") ]; top = "bad" };
  (* array literal inconsistency *)
  expect_error
    {
      fns =
        [
          fn "bad" [] (Array (Bits 8, 2))
            (ArrayLit [ Lit { width = 8; value = 1 }; lit 2 ]);
        ];
      top = "bad";
    };
  (* if arms differ *)
  expect_error
    {
      fns =
        [
          fn "bad" [] b32
            (If (Lit { width = 1; value = 1 }, lit 1, Lit { width = 8; value = 1 }));
        ];
      top = "bad";
    };
  (* missing top *)
  expect_error { fns = [ fn "f" [] b32 (lit 0) ]; top = "g" };
  (* for accumulator type mismatch *)
  expect_error
    {
      fns =
        [
          fn "bad" [] b32
            (For
               {
                 var = "i";
                 count = 4;
                 acc = "a";
                 init = lit 0;
                 body = Lit { width = 8; value = 1 };
               });
        ];
      top = "bad";
    }

let eval_top p inputs = Dslx.Lower.interpret p inputs

let circuit_eval p inputs =
  let c = Dslx.Lower.circuit p in
  let sim = Hw.Sim.create c in
  List.iteri
    (fun i v -> Hw.Sim.set sim (fst (List.nth c.Hw.Netlist.inputs i)) v)
    inputs;
  List.map (fun (name, _) -> Hw.Sim.get sim name) c.Hw.Netlist.outputs

let test_for_loop_fold () =
  (* sum 0..7 via a counted fold *)
  let p =
    {
      fns =
        [
          fn "sum" [] b32
            (For
               {
                 var = "i";
                 count = 8;
                 acc = "a";
                 init = lit 0;
                 body = Bin (Hw.Netlist.Add, Var "a", Cast (Var "i", 32, `Unsigned));
               });
        ];
      top = "sum";
    }
  in
  check int "interpreted" 28 (List.hd (eval_top p []));
  check int "elaborated" 28 (List.hd (circuit_eval p []))

let test_dynamic_index () =
  let p =
    {
      fns =
        [
          fn "pick"
            [
              { pname = "arr"; pty = Array (Bits 8, 4) };
              { pname = "i"; pty = Bits 2 };
            ]
            (Bits 8)
            (Index (Var "arr", Var "i"));
        ];
      top = "pick";
    }
  in
  check bool "typechecks" true (Result.is_ok (Dslx.Typecheck.check_program p));
  for i = 0 to 3 do
    check int
      (Printf.sprintf "select %d" i)
      (10 * (i + 1))
      (List.hd (circuit_eval p [ 10; 20; 30; 40; i ]))
  done

let test_dynamic_update () =
  let p =
    {
      fns =
        [
          fn "set"
            [
              { pname = "arr"; pty = Array (Bits 8, 4) };
              { pname = "i"; pty = Bits 2 };
            ]
            (Array (Bits 8, 4))
            (Update (Var "arr", Var "i", Lit { width = 8; value = 99 }));
        ];
      top = "set";
    }
  in
  let out = circuit_eval p [ 1; 2; 3; 4; 2 ] in
  check bool "updated slot" true (List.nth out 2 = 99);
  check bool "others preserved" true
    (List.nth out 0 = 1 && List.nth out 1 = 2 && List.nth out 3 = 4)

let idct_program_props =
  [
    QCheck.Test.make ~name:"idct program: interpreter = Chen-Wang" ~count:40
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Axis.Block.Rand.create ~seed () in
        let blk = Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255) in
        let outs =
          Dslx.Lower.interpret Dslx.Idct_dslx.program
            (Array.to_list (Array.map (fun v -> v land 0xFFF) blk))
        in
        let signed9 v = if v land 0x100 <> 0 then v - 512 else v in
        List.for_all2
          (fun got want -> signed9 got = want)
          outs
          (Array.to_list (Idct.Chenwang.idct blk)));
  ]

let mats n =
  let rng = Axis.Block.Rand.create ~seed:41 () in
  List.init n (fun _ ->
      Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))

let design ~stages name =
  Dslx.Idct_dslx.design ~stages ~kernel:(Dslx.Idct_dslx.kernel_circuit ())
    ~name:(Printf.sprintf "%s%d" name stages) ()

let test_stage_sweep_functional () =
  (* The pipeliner must preserve the function for every stage count. *)
  let inputs = mats 3 in
  let expected = List.map Idct.Chenwang.idct inputs in
  List.iter
    (fun stages ->
      let d = design ~stages "s" in
      let r = Axis.Driver.run d inputs in
      check bool (Printf.sprintf "stages=%d bit-true" stages) true
        (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected))
    [ 0; 1; 2; 5; 8; 13; 18 ]

let test_stage_sweep_monotone_fmax () =
  (* More stages must never slow the kernel down appreciably; by eight
     stages the frequency must have grown by at least 3x over the
     combinational design (the effect the paper exploits). *)
  let fmax stages =
    (Hw.Synth.run (design ~stages "m")).Hw.Synth.fmax_mhz
  in
  let f0 = fmax 0 and f8 = fmax 8 in
  check bool "8 stages at least 3x faster" true (f8 > 3. *. f0)

let test_stage_latency_grows () =
  let lat stages =
    (Axis.Driver.run (design ~stages "l") (mats 2)).Axis.Driver.latency
  in
  check int "comb latency 17" 17 (lat 0);
  check int "4-stage latency 21" 21 (lat 4)

let () =
  Alcotest.run "dslx"
    [
      ( "typecheck",
        [
          Alcotest.test_case "accepts" `Quick test_typecheck_ok;
          Alcotest.test_case "rejects" `Quick test_typecheck_errors;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "counted fold" `Quick test_for_loop_fold;
          Alcotest.test_case "dynamic index" `Quick test_dynamic_index;
          Alcotest.test_case "dynamic update" `Quick test_dynamic_update;
        ] );
      ("idct", List.map QCheck_alcotest.to_alcotest idct_program_props);
      ( "pipeline knob",
        [
          Alcotest.test_case "functional across stages" `Slow test_stage_sweep_functional;
          Alcotest.test_case "frequency scales" `Slow test_stage_sweep_monotone_fmax;
          Alcotest.test_case "latency grows with stages" `Quick test_stage_latency_grows;
        ] );
    ]
