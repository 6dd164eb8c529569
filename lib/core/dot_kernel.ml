(* The dot-product template behind the extension kernels:

     out[i] = clip9((sum_{k<8} w(i,k) * x[idx(i,k)]) >> s)

   Every front end is written once, over an instance's per-front-end
   weight and index terms. *)

type t = {
  name : string;
  top : string;
  weight : int -> int -> int;
  index : int -> int -> int;
  c_weight : int -> Chls.Ast.expr;
  c_index : int -> Chls.Ast.expr;
  dslx_weight : int -> Dslx.Ir.expr;
  dslx_index : int -> Dslx.Ir.expr;
  shift : int;
  seed : int;
  timeout : int;
  chisel_listing : string;
}

let clip9 v = if v < -256 then -256 else if v > 255 then 255 else v

(* A 32-bit DSLX literal. *)
let lit v = Dslx.Ir.Lit { width = 32; value = v }

let reference t blk =
  Array.init 64 (fun i ->
      let acc = ref 0 in
      for k = 0 to 7 do
        acc := !acc + (t.weight i k * blk.(t.index i k))
      done;
      clip9 (!acc asr t.shift))

(* The sum of the eight terms, left-nested from term 0. *)
let sum8 add term =
  List.fold_left (fun a k -> add a (term k)) (term 0) [ 1; 2; 3; 4; 5; 6; 7 ]

(* ---------------- C ---------------- *)

let c_program t =
  let open Chls.Ast in
  let v x = Var x in
  let i k = Int k in
  let acc =
    sum8
      (fun a b -> Bin (Add, a, b))
      (fun k -> Bin (Mul, t.c_weight k, Load ("x", t.c_index k)))
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
      fname = t.top;
      params = [ PArray ("blk", short_t, 64) ];
      ret = None;
      locals = [ ("i", int_t) ];
      arrays = [ ("x", short_t, 64) ];
      body =
        [
          (* snapshot the input: outputs read inputs the loop overwrites *)
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
                    ("blk", v "i", Call ("clip9", [ Bin (Shr, acc, i t.shift) ]));
                ];
            };
        ];
    }
  in
  { funcs = [ clip_fn; top ]; top = t.top }

(* ---------------- DSLX ---------------- *)

let dslx_program t =
  let open Dslx.Ir in
  let acc =
    sum8
      (fun a b -> Bin (Hw.Netlist.Add, a, b))
      (fun k ->
        Bin
          ( Hw.Netlist.Mul,
            t.dslx_weight k,
            Cast (Index (Var "m", t.dslx_index k), 32, `Signed) ))
  in
  let clip e =
    Cast
      ( If
          ( Bin (Hw.Netlist.Lt Hw.Netlist.Signed, e, lit (-256)),
            lit (-256),
            If (Bin (Hw.Netlist.Lt Hw.Netlist.Signed, lit 255, e), lit 255, e) ),
        9,
        `Signed )
  in
  let top =
    {
      fname = t.top;
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
                (Var "out", Var "i", clip (Bin (Hw.Netlist.Sra, acc, lit t.shift)));
          };
    }
  in
  { fns = [ top ]; top = t.top }

(* ---------------- Chisel-style generator ---------------- *)

(* Each of the 64 outputs has a static index, so the weights are plain
   constants here — the construction eDSL's minimal-width [mulc]
   datapaths, as the IDCT generator does with its cosines. *)
let chisel_design t ~name =
  let kernel b (mid : Hw.Builder.s array) =
    Array.init 64 (fun i ->
        let term k =
          Chisel.Dsl.mulc b (t.weight i k) (Chisel.Dsl.of_raw mid.(t.index i k))
        in
        let rec sum k a =
          if k = 8 then a else sum (k + 1) (Chisel.Dsl.add b a (term k))
        in
        let acc = sum 1 (term 0) in
        Chisel.Dsl.raw
          (Chisel.Dsl.resize b
             (Chisel.Dsl.clamp b ~lo:(-256) ~hi:255
                (Chisel.Dsl.asr_ b acc t.shift))
             Axis.Stream.out_width))
  in
  Axis.Adapter.wrap_matrix_kernel ~name ~latency:0 ~kernel ()

let c_design t ~name =
  Chls.Tool.sequential_circuit ~name Chls.Schedule.default_config
    Chls.Transform.default_options (c_program t)

let dslx_design t ?(stages = 4) ~name () =
  let comb = Dslx.Lower.circuit (dslx_program t) in
  let net = if stages = 0 then comb else Hw.Pipeline.retime ~stages comb in
  let kernel kb mid =
    let inputs =
      Array.to_list (Array.mapi (fun k s -> (Printf.sprintf "m_%d" k, s)) mid)
    in
    let outs = Hw.Instantiate.stamp kb net ~inputs in
    (* The outputs are out_0 .. out_63, in declaration order. *)
    Array.of_list (List.map snd outs)
  in
  Axis.Adapter.wrap_matrix_kernel ~name ~latency:stages ~kernel ()

(* ---------------- registration ---------------- *)

(* An instance enters the evaluation pipeline through the same door as
   the IDCT: a Flow.spec plus plain Design.t values.  Raw 12-bit sample
   blocks, not FDCT coefficients. *)
let spec t =
  let stimulus n =
    let rng = Axis.Block.Rand.create ~seed:t.seed () in
    List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-2048) ~hi:2047)
  in
  let reference = reference t in
  {
    Flow.spec_name = t.name;
    stimulus;
    reference;
    sim_timeout = Some t.timeout;
    comply = Flow.bit_true_comply ~stimulus ~reference;
  }

(* The eDSL design counts its curated listing (the generator itself is
   the OCaml above); the C and DSLX listings are pretty-printed from
   their programs, as for the IDCT. *)
let designs t =
  let design tool config_desc listing circuit =
    {
      Design.tool;
      label = t.top;
      config_desc;
      loc_fu = Loc.count listing;
      loc_axi = 0;
      loc_conf = 0;
      impl = Design.Stream (Design.cell tool t.top circuit);
      listing;
    }
  in
  [
    design Design.Chisel "construction eDSL" t.chisel_listing (fun () ->
        chisel_design t ~name:(t.top ^ "_hc"));
    design Design.Dslx "--pipeline_stages=4"
      (Dslx.Emit.emit (dslx_program t))
      (fun () -> dslx_design t ~stages:4 ~name:(t.top ^ "_xls") ());
    design Design.Bambu "Bambu-style defaults"
      (Chls.Cprint.emit (c_program t))
      (fun () -> c_design t ~name:(t.top ^ "_c"));
  ]

(* ---------------- the instances ---------------- *)

let taps = [| 1; 3; 8; 20; 20; 8; 3; 1 |]

let fir =
  {
    name = "fir8";
    top = "fir";
    weight = (fun _ k -> taps.(k));
    index = (fun i k -> (i - k) land 63);
    c_weight = (fun k -> Chls.Ast.Int taps.(k));
    c_index = (fun k -> Chls.Ast.(Bin (And, Bin (Sub, Var "i", Int k), Int 63)));
    dslx_weight = (fun k -> lit taps.(k));
    dslx_index =
      (fun k ->
        Dslx.Ir.(
          Bin (Hw.Netlist.And, Bin (Hw.Netlist.Sub, Var "i", lit k), lit 63)));
    shift = 6;
    seed = 9;
    timeout = 40000;
    chisel_listing =
      "class Fir8 extends Module {\n\
      \  val io = IO(new Bundle { val m = Input(Vec(64, SInt(12.W)))\n\
      \                           val y = Output(Vec(64, SInt(9.W))) })\n\
      \  val taps = VecInit(Seq(1, 3, 8, 20, 20, 8, 3, 1).map(_.S))\n\
      \  for (i <- 0 until 64) {\n\
      \    val acc = (0 until 8).map(k => taps(k) * io.m((i - k) & 63)).reduce(_ +& _)\n\
      \    io.y(i) := clip9(acc >> 6)\n\
      \  }\n\
       }\n";
  }

let matmul =
  {
    name = "matmul8";
    top = "matmul";
    weight = (fun i k -> ((((3 * k) + (5 * (i land 7))) land 7) - 3));
    index = (fun i k -> (i land 56) + k);
    c_weight =
      (fun k ->
        Chls.Ast.(
          Bin
            ( Sub,
              Bin
                ( And,
                  Bin (Add, Int (3 * k), Bin (Mul, Int 5, Bin (And, Var "i", Int 7))),
                  Int 7 ),
              Int 3 )));
    c_index = (fun k -> Chls.Ast.(Bin (Add, Bin (And, Var "i", Int 56), Int k)));
    (* the weight depends on the output column, so the fold index is
       data there and must be cast to a signal — the DSLX rule the
       lowerer enforces *)
    dslx_weight =
      (fun k ->
        Dslx.Ir.(
          Bin
            ( Hw.Netlist.Sub,
              Bin
                ( Hw.Netlist.And,
                  Bin
                    ( Hw.Netlist.Add,
                      lit (3 * k),
                      Bin
                        ( Hw.Netlist.Mul,
                          lit 5,
                          Bin (Hw.Netlist.And, Cast (Var "i", 32, `Signed), lit 7)
                        ) ),
                  lit 7 ),
              lit 3 )));
    dslx_index =
      (fun k ->
        Dslx.Ir.(
          Bin (Hw.Netlist.Add, Bin (Hw.Netlist.And, Var "i", lit 56), lit k)));
    shift = 5;
    seed = 11;
    timeout = 60000;
    chisel_listing =
      "class Matmul8 extends Module {\n\
      \  val io = IO(new Bundle { val m = Input(Vec(64, SInt(12.W)))\n\
      \                           val y = Output(Vec(64, SInt(9.W))) })\n\
      \  def w(k: Int, c: Int) = (((3 * k + 5 * c) & 7) - 3).S\n\
      \  for (r <- 0 until 8; c <- 0 until 8) {\n\
      \    val acc = (0 until 8).map(k => io.m(8 * r + k) * w(k, c)).reduce(_ +& _)\n\
      \    io.y(8 * r + c) := clip9(acc >> 5)\n\
      \  }\n\
       }\n";
  }
