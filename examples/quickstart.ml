(* Quickstart: build an IDCT accelerator, stream a matrix through it in
   cycle-accurate simulation, and read the synthesis report. *)

let () =
  (* 1. Pick a design from the registry: the optimized hand-written
        Verilog (parsed and elaborated from real source text). *)
  let design = Core.Kernel.optimized Core.Kernel.idct Core.Design.Verilog in
  let circuit =
    match design.Core.Design.impl with
    | Core.Design.Stream c -> Core.Design.force c
    | Core.Design.Pcie _ -> assert false
  in

  (* 2. Make a coefficient matrix: forward-DCT a random sample block. *)
  let rng = Axis.Block.Rand.create () in
  let samples = Axis.Block.Rand.block rng ~lo:(-256) ~hi:255 in
  let coeffs = Idct.Reference.fdct samples in

  (* 3. Stream it through the AXI-Stream wrapper, row by row. *)
  let result = Axis.Driver.run circuit [ coeffs ] in
  let out = List.hd result.Axis.Driver.outputs in
  Format.printf "input coefficients:@.%a@.@." Axis.Block.pp coeffs;
  Format.printf "reconstructed samples:@.%a@.@." Axis.Block.pp out;
  Format.printf "bit-true vs. reference model: %b@."
    (Axis.Block.equal out (Idct.Chenwang.idct coeffs));
  Format.printf "latency %d cycles, periodicity %d cycles@."
    result.Axis.Driver.latency result.Axis.Driver.periodicity;

  (* 4. Synthesize for the paper's UltraScale+ device. *)
  let report = Hw.Synth.run circuit in
  Format.printf "@.%a@." Hw.Synth.pp_report report;

  (* 5. Export the design as structural Verilog if you want to read it. *)
  Format.printf "@.emitted Verilog: %d lines@."
    (List.length (String.split_on_char '\n' (Hw.Verilog.emit circuit)))
