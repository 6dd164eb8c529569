let taps = [| 1; 3; 8; 20; 20; 8; 3; 1 |]

let clip9 v = if v < -256 then -256 else if v > 255 then 255 else v

let reference blk =
  Array.init 64 (fun i ->
      let acc = ref 0 in
      for k = 0 to 7 do
        acc := !acc + (taps.(k) * blk.((i - k) land 63))
      done;
      clip9 (!acc asr 6))

(* ---------------- C ---------------- *)

let c_program =
  let open Chls.Ast in
  let v x = Var x in
  let i k = Int k in
  let term k =
    Bin
      ( Mul,
        i taps.(k),
        Load ("x", Bin (And, Bin (Sub, v "i", i k), i 63)) )
  in
  let acc = List.fold_left (fun a k -> Bin (Add, a, term k)) (term 0) [ 1; 2; 3; 4; 5; 6; 7 ] in
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
      fname = "fir";
      params = [ PArray ("blk", short_t, 64) ];
      ret = None;
      locals = [ ("i", int_t) ];
      arrays = [ ("x", short_t, 64) ];
      body =
        [
          (* snapshot the input: the filter is not in-place *)
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
                      Call ("clip9", [ Bin (Shr, acc, i 6) ]) );
                ];
            };
        ];
    }
  in
  { funcs = [ clip_fn; top ]; top = "fir" }

(* ---------------- DSLX ---------------- *)

let dslx_program =
  let open Dslx.Ir in
  let l v = Lit { width = 32; value = v } in
  let term k =
    Bin
      ( Hw.Netlist.Mul,
        l taps.(k),
        Cast
          ( Index
              ( Var "m",
                Bin
                  ( Hw.Netlist.And,
                    Bin (Hw.Netlist.Sub, Var "i", l k),
                    l 63 ) ),
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
      fname = "fir";
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
                (Var "out", Var "i", clip (Bin (Hw.Netlist.Sra, acc, l 6)));
          };
      }
  in
  { fns = [ top ]; top = "fir" }

(* ---------------- Chisel-style generator ---------------- *)

let chisel_kernel b (mid : Hw.Builder.s array) =
  Array.init 64 (fun i ->
      let acc =
        let term k =
          Chisel.Dsl.mulc b taps.(k)
            (Chisel.Dsl.of_raw mid.((i - k) land 63))
        in
        let rec sum k a =
          if k = 8 then a else sum (k + 1) (Chisel.Dsl.add b a (term k))
        in
        sum 1 (term 0)
      in
      Chisel.Dsl.raw
        (Chisel.Dsl.resize b
           (Chisel.Dsl.clamp b ~lo:(-256) ~hi:255 (Chisel.Dsl.asr_ b acc 6))
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

(* The FIR enters the evaluation pipeline through the same door as the
   IDCT: a Flow.spec (stimulus/reference/timeout) plus plain Design.t
   values.  Raw 12-bit sample blocks, not FDCT coefficients; the rolled
   HLS schedule is memory-bound, so it needs a longer testbench budget. *)
let stimulus n =
  let rng = Axis.Block.Rand.create ~seed:9 () in
  List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-2048) ~hi:2047)

let spec =
  {
    Flow.spec_name = "fir8";
    stimulus;
    reference;
    sim_timeout = Some 40000;
    comply = Flow.bit_true_comply ~stimulus ~reference;
  }

(* A curated source listing for the eDSL design (the generator itself is
   the OCaml above); the C and DSLX listings are pretty-printed from
   their programs, as in Registry. *)
let chisel_listing =
  "class Fir8 extends Module {\n\
  \  val io = IO(new Bundle { val m = Input(Vec(64, SInt(12.W)))\n\
  \                           val y = Output(Vec(64, SInt(9.W))) })\n\
  \  val taps = VecInit(Seq(1, 3, 8, 20, 20, 8, 3, 1).map(_.S))\n\
  \  for (i <- 0 until 64) {\n\
  \    val acc = (0 until 8).map(k => taps(k) * io.m((i - k) & 63)).reduce(_ +& _)\n\
  \    io.y(i) := clip9(acc >> 6)\n\
  \  }\n\
   }\n"

let fir_design tool config_desc listing circuit =
  {
    Design.tool;
    label = "fir";
    config_desc;
    loc_fu = Loc.count listing;
    loc_axi = 0;
    loc_conf = 0;
    impl = Design.Stream (Design.cell tool "fir" circuit);
    listing;
  }

(* Designs are keyed by their first-class Registry tool — resolved
   through the same parser as --tools, so alias handling ("xls" is the
   Dslx front end, "bambu" the C one) stays uniform with the IDCT. *)
let tool_of name =
  match Registry.parse_tool name with
  | Some t -> t
  | None -> invalid_arg (Registry.unknown_tool_msg name)

let designs =
  [
    ( tool_of "chisel",
      fir_design Design.Chisel "construction eDSL" chisel_listing
        (fun () -> chisel_design ~name:"fir_hc") );
    ( tool_of "xls",
      fir_design Design.Dslx "--pipeline_stages=4"
        (Dslx.Emit.emit dslx_program)
        (fun () -> dslx_design ~stages:4 ~name:"fir_xls" ()) );
    ( tool_of "bambu",
      fir_design Design.Bambu "Bambu-style defaults"
        (Chls.Cprint.emit c_program)
        (fun () -> c_design ~name:"fir_c") );
  ]
