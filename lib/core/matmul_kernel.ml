(* Third benchmark kernel: a blocked 8x8 matrix multiply over the same
   64-element block framing as the IDCT and the FIR.  The input block is
   an 8x8 matrix X of 12-bit samples; the output is X * W for a fixed
   8x8 weight matrix W, scaled by [>> 5] and clipped to 9 bits:

     out[r][c] = clip9((sum_k X[r][k] * W[k][c]) >> 5)

   The weights are small signed constants generated arithmetically,
   [w k c = ((3k + 5c) land 7) - 3], so the rolled HLS loops can compute
   them with index arithmetic instead of a coefficient ROM — every value
   in [-3, 4] occurs, including negatives and zero.  Ranges: |X| <= 2048
   and |w| <= 4 give |acc| <= 65536, so 32-bit accumulators never
   overflow and the scaled product covers the full 9-bit output range. *)

let clip9 v = if v < -256 then -256 else if v > 255 then 255 else v

let reference blk =
  Array.init 64 (fun i ->
      let c = i land 7 and base = i land 56 in
      let acc = ref 0 in
      for k = 0 to 7 do
        acc := !acc + (blk.(base + k) * ((((3 * k) + (5 * c)) land 7) - 3))
      done;
      clip9 (!acc asr 5))

(* ---------------- C ---------------- *)

let c_program =
  let open Chls.Ast in
  let v x = Var x in
  let i k = Int k in
  (* w(k, i&7) computed in index arithmetic; one variable-by-variable
     multiply per term occupies the shared multiplier unit. *)
  let weight_expr k =
    Bin
      ( Sub,
        Bin
          ( And,
            Bin (Add, i (3 * k), Bin (Mul, i 5, Bin (And, v "i", i 7))),
            i 7 ),
        i 3 )
  in
  let term k =
    Bin
      ( Mul,
        weight_expr k,
        Load ("x", Bin (Add, Bin (And, v "i", i 56), i k)) )
  in
  let acc =
    List.fold_left (fun a k -> Bin (Add, a, term k)) (term 0)
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  let clip_fn =
    {
      fname = "clip9";
      params = [ PScalar ("v", int_t) ];
      ret = Some int_t;
      locals = [];
      arrays = [];
      body =
        [
          Return
            (Cond
               ( Bin (Lt, v "v", i (-256)),
                 i (-256),
                 Cond (Bin (Gt, v "v", i 255), i 255, v "v") ));
        ];
    }
  in
  let top =
    {
      fname = "matmul";
      params = [ PArray ("blk", short_t, 64) ];
      ret = None;
      locals = [ ("i", int_t) ];
      arrays = [ ("x", short_t, 64) ];
      body =
        [
          (* snapshot the input: every output row reads the whole input row *)
          For
            {
              ivar = "i";
              bound = 64;
              body = [ Store ("x", v "i", Load ("blk", v "i")) ];
            };
          For
            {
              ivar = "i";
              bound = 64;
              body =
                [
                  Store
                    ( "blk",
                      v "i",
                      Call ("clip9", [ Bin (Shr, acc, i 5) ]) );
                ];
            };
        ];
    }
  in
  { funcs = [ clip_fn; top ]; top = "matmul" }

(* ---------------- DSLX ---------------- *)

let dslx_program =
  let open Dslx.Ir in
  let l v = Lit { width = 32; value = v } in
  (* The loop index is data here (the weight depends on the output
     column), so it must be cast to a signal before arithmetic — the
     DSLX rule the lowerer enforces. *)
  let weight_expr k =
    Bin
      ( Hw.Netlist.Sub,
        Bin
          ( Hw.Netlist.And,
            Bin
              ( Hw.Netlist.Add,
                l (3 * k),
                Bin
                  ( Hw.Netlist.Mul,
                    l 5,
                    Bin
                      ( Hw.Netlist.And,
                        Cast (Var "i", 32, `Signed),
                        l 7 ) ) ),
            l 7 ),
        l 3 )
  in
  let term k =
    Bin
      ( Hw.Netlist.Mul,
        weight_expr k,
        Cast
          ( Index
              ( Var "m",
                Bin
                  ( Hw.Netlist.Add,
                    Bin (Hw.Netlist.And, Var "i", l 56),
                    l k ) ),
            32,
            `Signed ) )
  in
  let acc =
    List.fold_left
      (fun a k -> Bin (Hw.Netlist.Add, a, term k))
      (term 0) [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  let clip e =
    Cast
      ( If
          ( Bin (Hw.Netlist.Lt Hw.Netlist.Signed, e, l (-256)),
            l (-256),
            If (Bin (Hw.Netlist.Lt Hw.Netlist.Signed, l 255, e), l 255, e) ),
        9,
        `Signed )
  in
  let top =
    {
      fname = "matmul";
      params = [ { pname = "m"; pty = Array (Bits 12, 64) } ];
      ret = Array (Bits 9, 64);
      body =
        For
          {
            var = "i";
            count = 64;
            acc = "out";
            init = ArrayLit (List.init 64 (fun _ -> Lit { width = 9; value = 0 }));
            body =
              Update
                (Var "out", Var "i", clip (Bin (Hw.Netlist.Sra, acc, l 5)));
          };
    }
  in
  { fns = [ top ]; top = "matmul" }

(* ---------------- Chisel-style generator ---------------- *)

(* Each of the 64 outputs has a static (row, col), so the weights are
   plain constants here — the construction eDSL's minimal-width [mulc]
   datapaths, exactly as the IDCT generator does with its cosines. *)
let chisel_kernel b (mid : Hw.Builder.s array) =
  Array.init 64 (fun i ->
      let c = i land 7 and base = i land 56 in
      let acc =
        let term k =
          Chisel.Dsl.mulc b
            ((((3 * k) + (5 * c)) land 7) - 3)
            (Chisel.Dsl.of_raw mid.(base + k))
        in
        let rec sum k a =
          if k = 8 then a else sum (k + 1) (Chisel.Dsl.add b a (term k))
        in
        sum 1 (term 0)
      in
      Chisel.Dsl.raw
        (Chisel.Dsl.resize b
           (Chisel.Dsl.clamp b ~lo:(-256) ~hi:255 (Chisel.Dsl.asr_ b acc 5))
           Axis.Stream.out_width))

let chisel_design ~name =
  Axis.Adapter.wrap_matrix_kernel ~name ~latency:0 ~kernel:chisel_kernel ()

let c_design ~name =
  Chls.Tool.sequential_circuit ~name Chls.Schedule.default_config
    Chls.Transform.default_options c_program

let dslx_design ?(stages = 4) ~name () =
  let comb = Dslx.Lower.circuit dslx_program in
  let net = if stages = 0 then comb else Hw.Pipeline.retime ~stages comb in
  let kernel kb mid =
    let inputs =
      Array.to_list (Array.mapi (fun k s -> (Printf.sprintf "m_%d" k, s)) mid)
    in
    let outs = Hw.Instantiate.stamp kb net ~inputs in
    Array.init 64 (fun k -> List.assoc (Printf.sprintf "out_%d" k) outs)
  in
  Axis.Adapter.wrap_matrix_kernel ~name ~latency:stages ~kernel ()

(* ---------------- registration ---------------- *)

let stimulus n =
  let rng = Axis.Block.Rand.create ~seed:11 () in
  List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-2048) ~hi:2047)

let spec =
  {
    Flow.spec_name = "matmul8";
    stimulus;
    reference;
    sim_timeout = Some 60000;
    comply = Flow.bit_true_comply ~stimulus ~reference;
  }

let chisel_listing =
  "class Matmul8 extends Module {\n\
  \  val io = IO(new Bundle { val m = Input(Vec(64, SInt(12.W)))\n\
  \                           val y = Output(Vec(64, SInt(9.W))) })\n\
  \  def w(k: Int, c: Int) = (((3 * k + 5 * c) & 7) - 3).S\n\
  \  for (r <- 0 until 8; c <- 0 until 8) {\n\
  \    val acc = (0 until 8).map(k => io.m(8 * r + k) * w(k, c)).reduce(_ +& _)\n\
  \    io.y(8 * r + c) := clip9(acc >> 5)\n\
  \  }\n\
   }\n"

let matmul_design tool config_desc listing circuit =
  {
    Design.tool;
    label = "matmul";
    config_desc;
    loc_fu = Loc.count listing;
    loc_axi = 0;
    loc_conf = 0;
    impl = Design.Stream (Design.cell tool "matmul" circuit);
    listing;
  }

let tool_of name =
  match Registry.parse_tool name with
  | Some t -> t
  | None -> invalid_arg (Registry.unknown_tool_msg name)

let designs =
  [
    ( tool_of "chisel",
      matmul_design Design.Chisel "construction eDSL" chisel_listing
        (fun () -> chisel_design ~name:"matmul_hc") );
    ( tool_of "xls",
      matmul_design Design.Dslx "--pipeline_stages=4"
        (Dslx.Emit.emit dslx_program)
        (fun () -> dslx_design ~stages:4 ~name:"matmul_xls" ()) );
    ( tool_of "bambu",
      matmul_design Design.Bambu "Bambu-style defaults"
        (Chls.Cprint.emit c_program)
        (fun () -> c_design ~name:"matmul_c") );
  ]
