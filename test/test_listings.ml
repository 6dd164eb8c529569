(* Tests for the source listings and emitters behind the LOC metric, and
   for parser corner cases they rely on. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- DSLX emitter ---------------- *)

let test_dslx_emit () =
  let src = Dslx.Emit.emit Dslx.Idct_dslx.program in
  check bool "row_pass fn" true (contains src "fn row_pass");
  check bool "col_pass fn" true (contains src "fn col_pass");
  check bool "top fn" true (contains src "fn idct(m: s12[64]) -> s9[64]");
  check bool "counted for" true (contains src "for (r, mid_acc) in u32:0..u32:8");
  check bool "update builtin" true (contains src "update(")

(* ---------------- C printer ---------------- *)

let test_cprint () =
  let src = Chls.Cprint.emit Chls.Idct_c.program in
  check bool "iclip" true (contains src "int iclip(int x)");
  check bool "short arrays" true (contains src "void idct(short blk[64])");
  check bool "loops" true (contains src "for (i = 0; i < 8; i++)");
  check bool "pointer views" true (contains src "blk + i * 8");
  check bool "constants" true (contains src "565")

let test_cprint_pragmas () =
  let src =
    Chls.Cprint.emit
      ~pragmas:[ ("idct", Chls.Tool.vhls_pragmas Chls.Tool.vhls_optimized) ]
      Chls.Idct_c.program
  in
  check bool "interface pragma" true (contains src "#pragma HLS INTERFACE axis");
  check bool "pipeline pragma" true (contains src "#pragma HLS PIPELINE II=8")

(* ---------------- MaxJ listings ---------------- *)

let test_maxj_listings () =
  let i = Core.Listings.maxj_shared ^ Core.Listings.maxj_initial in
  check bool "kernel class" true (contains i "extends Kernel");
  check bool "manager" true (contains i "addStreamFromCPU");
  let o = Core.Listings.maxj_optimized in
  check bool "stream holds" true (contains o "streamHold")

(* ---------------- registry LOC accounting ---------------- *)

let test_loc_decomposition () =
  List.iter
    (fun tool ->
      let d = Core.Kernel.initial idct tool in
      check bool
        (Core.Design.tool_name tool ^ " loc parts are positive")
        true
        (d.Core.Design.loc_fu > 0 && d.Core.Design.loc_axi >= 0
        && d.Core.Design.loc_conf >= 0);
      check int
        (Core.Design.tool_name tool ^ " loc = sum of parts")
        (d.Core.Design.loc_fu + d.Core.Design.loc_axi + d.Core.Design.loc_conf)
        (Core.Design.loc d))
    Core.Design.all_tools

let test_generated_interfaces_cost_nothing () =
  (* MaxCompiler and Vivado HLS generate their interfaces: L^AXI = 0. *)
  check int "maxj axi loc" 0 (Core.Kernel.initial idct Core.Design.Maxj).Core.Design.loc_axi;
  check int "vhls axi loc" 0
    (Core.Kernel.initial idct Core.Design.Vivado_hls).Core.Design.loc_axi;
  (* Bambu cannot: the hand-written adapter is counted. *)
  check bool "bambu pays for its adapter" true
    ((Core.Kernel.initial idct Core.Design.Bambu).Core.Design.loc_axi > 0)

let test_dslx_config_loc () =
  (* the optimized XLS design differs by exactly one option line *)
  check int "initial has no config" 0
    (Core.Kernel.initial idct Core.Design.Dslx).Core.Design.loc_conf;
  check int "optimized has one option" 1
    (Core.Kernel.optimized idct Core.Design.Dslx).Core.Design.loc_conf;
  check int "delta includes it" 1 (Core.Kernel.delta_loc idct Core.Design.Dslx)

(* ---------------- vlog parser corners the sources rely on ------------- *)

let test_parse_concat_rewind () =
  (* `{3, 4}` is a concat whose first element is a number: exercises the
     parser's rewind between replication and concatenation. *)
  let e = Vlog.Parse.expr_of_string "{4'd3, 4'd4}" in
  (match e with
  | Vlog.Ast.Concat [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected a two-part concat");
  let r = Vlog.Parse.expr_of_string "{4{2'b10}}" in
  match r with
  | Vlog.Ast.Repeat (4, _) -> ()
  | _ -> Alcotest.fail "expected a replication"

let test_parse_no_reset_module () =
  (* modules without the reset idiom still elaborate (init 0) *)
  let src =
    {|module m (clk, rst, q);
  input clk, rst;
  output [3:0] q;
  reg [3:0] q;
  always @(posedge clk) q <= q + 4'd1;
endmodule|}
  in
  let sim = Hw.Sim.create (Vlog.Elaborate.circuit_of_string src) in
  Hw.Sim.step_n sim 3;
  check int "counts from zero" 3 (Hw.Sim.get sim "q")

let test_parse_instance_output_expr_rejected () =
  let src =
    {|module inner (x, y);
  input x;
  output y;
  assign y = x;
endmodule
module top (a, b);
  input a;
  output b;
  inner u (.x(a), .y(a + 1));
  assign b = a;
endmodule|}
  in
  match Vlog.Elaborate.circuit_of_string ~top:"top" src with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected rejection of expression-connected output"

let test_emitted_verilog_reparses_all_rtl_designs () =
  (* Emit every RTL-style optimized design and re-elaborate it: the
     emitter and parser agree on the full language subset in use. *)
  List.iter
    (fun tool ->
      let d = Core.Kernel.optimized idct tool in
      match d.Core.Design.impl with
      | Core.Design.Stream c ->
          let c = Core.Design.force c in
          let src = Hw.Verilog.emit c in
          let c2 = Vlog.Elaborate.circuit_of_string src in
          check bool
            (Core.Design.tool_name tool ^ " round-trips")
            true
            (Hw.Equiv.check ~cycles:24 c c2 = Hw.Equiv.Equivalent)
      | Core.Design.Pcie _ -> ())
    [ Core.Design.Chisel; Core.Design.Bsv ]

(* Fuzz the emit -> parse -> elaborate loop over random circuits. *)
let random_circuit seed =
  let rng = Random.State.make [| seed |] in
  let b = Hw.Builder.create "fuzz" in
  let nodes = ref [ Hw.Builder.input b "a" 12; Hw.Builder.input b "b" 12 ] in
  let regs = ref [] in
  for _ = 1 to 18 do
    let pick () = List.nth !nodes (Random.State.int rng (List.length !nodes)) in
    let x = pick () and y = pick () in
    let n =
      match Random.State.int rng 9 with
      | 0 -> Hw.Builder.add b x y
      | 1 -> Hw.Builder.sub b x y
      | 2 -> Hw.Builder.xor_ b x y
      | 3 -> Hw.Builder.mux b (Hw.Builder.bit b x 0) x y
      | 4 -> Hw.Builder.mul b (Hw.Builder.const b ~width:12 (Random.State.int rng 100)) x
      | 5 -> Hw.Builder.sra_const b x (Random.State.int rng 6)
      | 6 -> Hw.Builder.slice b (Hw.Builder.concat b x y) ~hi:17 ~lo:6
      | 7 ->
          let q = Hw.Builder.reg_next b ~name:(Printf.sprintf "q%d" (List.length !regs)) x in
          regs := q :: !regs;
          q
      | _ -> Hw.Builder.lt b ~signed:(Random.State.bool rng) x y |> fun c ->
             Hw.Builder.mux b c x y
    in
    nodes := n :: !nodes
  done;
  Hw.Builder.output b "o" (List.hd !nodes);
  Hw.Builder.finalize b

let verilog_roundtrip_fuzz =
  QCheck.Test.make ~name:"emit -> parse -> elaborate is the identity" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let c = random_circuit seed in
      let c2 = Vlog.Elaborate.circuit_of_string (Hw.Verilog.emit c) in
      Hw.Equiv.check ~cycles:20 ~seed c c2 = Hw.Equiv.Equivalent)

let () =
  Alcotest.run "listings"
    [
      ( "emitters",
        [
          Alcotest.test_case "dslx program" `Quick test_dslx_emit;
          Alcotest.test_case "c program" `Quick test_cprint;
          Alcotest.test_case "c pragmas" `Quick test_cprint_pragmas;
          Alcotest.test_case "maxj kernels" `Quick test_maxj_listings;
        ] );
      ( "loc accounting",
        [
          Alcotest.test_case "decomposition" `Quick test_loc_decomposition;
          Alcotest.test_case "generated interfaces" `Quick test_generated_interfaces_cost_nothing;
          Alcotest.test_case "xls single option" `Quick test_dslx_config_loc;
        ] );
      ( "vlog corners",
        [
          Alcotest.test_case "concat rewind" `Quick test_parse_concat_rewind;
          Alcotest.test_case "no-reset module" `Quick test_parse_no_reset_module;
          Alcotest.test_case "instance output must be a wire" `Quick
            test_parse_instance_output_expr_rejected;
          Alcotest.test_case "emit/reparse RTL designs" `Slow
            test_emitted_verilog_reparses_all_rtl_designs;
          QCheck_alcotest.to_alcotest verilog_roundtrip_fuzz;
        ] );
    ]
