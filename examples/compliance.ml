(* IEEE Std 1180-1990 accuracy run: the software models at full depth,
   then two hardware designs at gate level (fewer blocks — cycle-accurate
   simulation of tens of thousands of nodes is slower than software). *)

let report name stats_list =
  Format.printf "%s:@." name;
  List.iter
    (fun ((r : Idct.Ieee1180.range), s, (v : Idct.Ieee1180.verdict)) ->
      Format.printf "  range (%d, %d) sign %+d: %a -> %s@." r.lo r.hi r.sign
        Idct.Ieee1180.pp_stats s
        (if v.passed then "PASS" else String.concat "; " v.failures))
    stats_list

let () =
  report "reference fixed-point model (10000 blocks)"
    (Idct.Ieee1180.run ~blocks:10000 (List.map Idct.Chenwang.idct));
  report "C program via interpreter (2000 blocks)"
    (Idct.Ieee1180.run ~blocks:2000 (List.map Chls.Idct_c.run));
  let gate_level tool =
    let d = Core.Kernel.optimized Core.Kernel.idct tool in
    match d.Core.Design.impl with
    | Core.Design.Stream c ->
        let c = Core.Design.force c in
        report
          (Printf.sprintf "%s optimized, gate level (500 blocks)"
             (Core.Design.tool_name tool))
          (Idct.Ieee1180.run ~blocks:500 (Axis.Driver.transform_batch c))
    | Core.Design.Pcie _ -> ()
  in
  gate_level Core.Design.Verilog;
  gate_level Core.Design.Vivado_hls
