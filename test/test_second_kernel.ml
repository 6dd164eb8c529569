(* The extension kernels — both instances of the dot-product template —
   checked across all three front ends against one software reference. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Dot = Core.Dot_kernel

let inputs n =
  let rng = Axis.Block.Rand.create ~seed:91 () in
  List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-2048) ~hi:2047)

let test_reference_shape () =
  (* A constant block filters to (64*c) >> 6 = c, clipped. *)
  let flat = Array.make 64 100 in
  check bool "dc gain is unity" true
    (Array.for_all (fun v -> v = 100) (Dot.reference Dot.fir flat));
  let hot = Array.make 64 0 in
  hot.(0) <- 64;
  let out = Dot.reference Dot.fir hot in
  (* impulse response appears at i = 0..7 (circular) with tap/1 weights *)
  Array.iteri (fun k t -> check int (Printf.sprintf "tap %d" k) t out.(k)) Dot.taps

let test_c_interp_matches (t : Dot.t) () =
  List.iter
    (fun blk ->
      let arr = Array.copy blk in
      ignore (Chls.Ast.interp (Dot.c_program t) t.Dot.top ~args:[ `Arr arr ]);
      check bool "c = reference" true
        (Axis.Block.equal arr (Dot.reference t blk)))
    (inputs 10)

let test_dslx_interp_matches (t : Dot.t) () =
  List.iter
    (fun blk ->
      let outs =
        Dslx.Lower.interpret (Dot.dslx_program t)
          (Array.to_list (Array.map (fun v -> v land 0xFFF) blk))
      in
      let signed9 v = if v land 0x100 <> 0 then v - 512 else v in
      check bool "dslx = reference" true
        (List.for_all2
           (fun got want -> signed9 got = want)
           outs
           (Array.to_list (Dot.reference t blk))))
    (inputs 5)

let gate_level (t : Dot.t) name build () =
  let ins = inputs 3 in
  let expected = List.map (Dot.reference t) ins in
  let r = Axis.Driver.run ~timeout:t.Dot.timeout (build ()) ins in
  check bool (name ^ " gate level = reference") true
    (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected);
  check int (name ^ " protocol clean") 0 (List.length r.Axis.Driver.violations)

let front_ends (t : Dot.t) =
  [
    Alcotest.test_case "c interpreter" `Quick (test_c_interp_matches t);
    Alcotest.test_case "dslx interpreter" `Quick (test_dslx_interp_matches t);
    Alcotest.test_case "chisel gate level" `Slow
      (gate_level t "chisel" (fun () ->
           Dot.chisel_design t ~name:(t.Dot.top ^ "_hc")));
    Alcotest.test_case "c gate level" `Slow
      (gate_level t "c" (fun () -> Dot.c_design t ~name:(t.Dot.top ^ "_c")));
    Alcotest.test_case "dslx gate level" `Slow
      (gate_level t "dslx" (fun () ->
           Dot.dslx_design t ~stages:3 ~name:(t.Dot.top ^ "_xls") ()));
  ]

let () =
  Alcotest.run "second-kernel"
    [
      ( "fir",
        Alcotest.test_case "reference shape" `Quick test_reference_shape
        :: front_ends Dot.fir );
      ("matmul", front_ends Dot.matmul);
    ]
