(* A JPEG/MPEG-flavoured workload (the use case the paper's introduction
   motivates): dequantize a grid of quantized DCT blocks and reconstruct
   the image through the hardware IDCT accelerator, streamed block by
   block over AXI-Stream.  Reports the PSNR of the hardware decode against
   the original image. *)

(* The JPEG Annex K luminance quantization table. *)
let qtable =
  [|
    16; 11; 10; 16; 24; 40; 51; 61;
    12; 12; 14; 19; 26; 58; 60; 55;
    14; 13; 16; 24; 40; 57; 69; 56;
    14; 17; 22; 29; 51; 87; 80; 62;
    18; 22; 37; 56; 68; 109; 103; 77;
    24; 35; 55; 64; 81; 104; 113; 92;
    49; 64; 78; 87; 103; 121; 120; 101;
    72; 92; 95; 98; 112; 100; 103; 99;
  |]

let width = 32
let height = 32
let blocks_x = width / 8
let blocks_y = height / 8

(* A synthetic photograph: smooth gradients plus some texture. *)
let image =
  Array.init (width * height) (fun i ->
      let x = i mod width and y = i / width in
      let v =
        (128. *. (1. +. sin (float_of_int x /. 5.) *. cos (float_of_int y /. 7.)))
        +. (20. *. sin (float_of_int (x * y) /. 40.))
      in
      max 0 (min 255 (int_of_float v)))

let block_of_image bx by =
  let b = Axis.Block.create () in
  for r = 0 to 7 do
    for c = 0 to 7 do
      (* JPEG level shift: samples are centred on zero before the DCT *)
      Axis.Block.set b ~row:r ~col:c
        (image.((((by * 8) + r) * width) + (bx * 8) + c) - 128)
    done
  done;
  b

let round_div a b =
  let q = float_of_int a /. float_of_int b in
  int_of_float (if q >= 0. then floor (q +. 0.5) else ceil (q -. 0.5))

let () =
  (* Encode: forward DCT + quantization (the lossy part). *)
  let encoded =
    List.init (blocks_x * blocks_y) (fun k ->
        let bx = k mod blocks_x and by = k / blocks_x in
        let coeffs = Idct.Reference.fdct (block_of_image bx by) in
        Array.mapi (fun i v -> round_div v qtable.(i)) coeffs)
  in
  (* Decode: dequantize, then the hardware IDCT does the heavy lifting. *)
  let dequantized =
    List.map
      (fun blk ->
        Array.mapi (fun i v -> Axis.Block.clamp_input (v * qtable.(i))) blk)
      encoded
  in
  let accel =
    match (Core.Kernel.optimized Core.Kernel.idct Core.Design.Verilog).Core.Design.impl with
    | Core.Design.Stream c -> Core.Design.force c
    | Core.Design.Pcie _ -> assert false
  in
  let r = Axis.Driver.run accel dequantized in
  Printf.printf "decoded %d blocks in %d cycles (periodicity %d)\n"
    (List.length dequantized) r.Axis.Driver.cycles r.Axis.Driver.periodicity;

  (* Reassemble and score. *)
  let out = Array.make (width * height) 0 in
  List.iteri
    (fun k blk ->
      let bx = k mod blocks_x and by = k / blocks_x in
      for r' = 0 to 7 do
        for c = 0 to 7 do
          out.((((by * 8) + r') * width) + (bx * 8) + c) <-
            max 0 (min 255 (Axis.Block.get blk ~row:r' ~col:c + 128))
        done
      done)
    r.Axis.Driver.outputs;
  let mse =
    Array.fold_left ( + ) 0
      (Array.init (width * height) (fun i ->
           let d = out.(i) - image.(i) in
           d * d))
  in
  let mse = float_of_int mse /. float_of_int (width * height) in
  let psnr = 10. *. log10 (255. *. 255. /. mse) in
  Printf.printf "hardware decode PSNR: %.2f dB (JPEG-quality lossy path)\n" psnr;
  (* The loss must come from quantization, not from the hardware: decode
     the same data in software and compare bit by bit. *)
  let sw = List.map Idct.Chenwang.idct dequantized in
  Printf.printf "hardware matches software decode: %b\n"
    (List.for_all2 Axis.Block.equal sw r.Axis.Driver.outputs);
  assert (psnr > 30.)
