(* Design-space exploration the XLS way: one knob (pipeline stages), many
   design points.  Prints the Performance x Area frontier of Fig. 1's XLS
   series. *)

let () =
  Format.printf "XLS pipeline-stage sweep (8x8 IDCT behind AXI-Stream)@.@.";
  Format.printf "%8s %10s %12s %10s %10s@." "stages" "fmax MHz" "P MOPS" "A"
    "Q=P/A";
  let best = ref (0, neg_infinity) in
  let kernel = Dslx.Idct_dslx.kernel_circuit () in
  List.iter
    (fun stages ->
      let d =
        Dslx.Idct_dslx.design ~stages ~kernel
          ~name:(Printf.sprintf "xls_s%d" stages)
          ()
      in
      let rng = Axis.Block.Rand.create () in
      let mats =
        List.init 3 (fun _ ->
            Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))
      in
      let r = Axis.Driver.run d mats in
      let rep = Hw.Synth.run d in
      let p = rep.Hw.Synth.fmax_mhz /. float_of_int r.Axis.Driver.periodicity in
      let q = p *. 1e6 /. float_of_int rep.Hw.Synth.area in
      if q > snd !best then best := (stages, q);
      Format.printf "%8d %10.1f %12.2f %10d %10.0f@." stages
        rep.Hw.Synth.fmax_mhz p rep.Hw.Synth.area q)
    [ 0; 1; 2; 3; 4; 6; 8; 10; 12; 16 ];
  Format.printf "@.best quality at %d stages (Q = %.0f)@." (fst !best)
    (snd !best)
