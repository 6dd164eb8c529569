(* Section IV of the paper as measured ratios.  The registered design
   points are measured in three batches — (idct, 4 matrices), (idct, 3),
   (fir8, 3) — with E9's scheduler grid beside them; each section then
   reads its operands back and prints into one buffer. *)

let idct = Kernel.idct

(* One batch under one spec and stream length: the lookup of its
   measured points (total once the batch has no failure) and its typed
   failures. *)
let batch ?jobs ~matrices ~spec designs =
  let outcomes = Evaluate.measure_all_result ?jobs ~matrices ~spec designs in
  let measured = List.combine (List.map Flow.span_key designs) outcomes in
  ((fun d -> Result.get_ok (List.assoc (Flow.span_key d) measured)),
   Flow.errors outcomes)

(* E9: the Bambu-style sequential flow over memory ports x chaining
   budget.  Not a registry sweep, so each circuit is built, driven with
   two matrices and synthesized here; a configuration that raises
   becomes a typed error named after it. *)
let scheduler_grid ?jobs () =
  let configs =
    List.concat_map (fun p -> List.map (fun c -> (p, c)) [ 3.; 5.; 8.; 12. ])
      [ 1; 2 ]
  in
  let run (ports, chain_ns) =
    let cfg =
      { Chls.Schedule.read_ports = ports; write_ports = ports;
        multipliers = 2; chain_ns }
    in
    let c =
      Chls.Tool.sequential_circuit
        ~name:(Printf.sprintf "ab_%d_%.0f" ports chain_ns)
        cfg Chls.Transform.default_options Chls.Idct_c.program
    in
    let rng = Axis.Block.Rand.create ~seed:5 () in
    let mats =
      List.init 2 (fun _ ->
          Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))
    in
    let r = Axis.Driver.run ~timeout:30000 c mats in
    (ports, chain_ns, r.periodicity, (Hw.Synth.run c).fmax_mhz)
  in
  let outcomes =
    List.map2
      (fun (p, c) ->
        Result.map_error (fun (e, _) ->
            let design = Printf.sprintf "E9/ports=%d chain=%.1fns" p c in
            Flow.error_of_exn ~design e))
      configs
      (Parallel.map_result ?jobs run configs)
  in
  (List.filter_map Result.to_option outcomes, Flow.errors outcomes)

let compute_result ?jobs () =
  let spec = Kernel.spec idct and fir = Option.get (Kernel.find "fir8") in
  let initial = Kernel.initial idct and design = Kernel.optimized idct in
  let v_initial, v_row8, v_opt =
    match Kernel.sweep idct Design.Verilog with
    | [ a; b; c ] -> (a, b, c)
    | _ -> invalid_arg "Ablations: the Verilog ladder has three designs"
  in
  let bsc_grid =
    List.filter
      (fun (d : Design.t) -> String.starts_with ~prefix:"optimized/" d.label)
      (Kernel.sweep idct Design.Bsv)
  in
  let m4, e4 =
    batch ?jobs ~matrices:4 ~spec
      [ v_initial; v_row8; v_opt; initial Maxj; design Maxj; design Vivado_hls ]
  in
  let m3, e3 =
    batch ?jobs ~matrices:3 ~spec
      ([ initial Bambu; design Bambu; initial Vivado_hls; design Vivado_hls;
         design Chisel; design Dslx ] @ bsc_grid)
  in
  let fir_designs = Kernel.all_designs fir in
  let m_fir, e_fir =
    batch ?jobs ~matrices:3 ~spec:(Kernel.spec fir) fir_designs
  in
  let grid, e_grid = scheduler_grid ?jobs () in
  (* A design failing identically at both stream lengths is one failure. *)
  let failures =
    List.fold_left
      (fun acc e -> if List.mem e acc then acc else acc @ [ e ])
      [] (e4 @ e3 @ e_fir @ e_grid)
  in
  if failures <> [] then ("", failures)
  else begin
    let buf = Buffer.create 4096 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let section title =
      if Buffer.length buf > 0 then pr "\n";
      pr "%s\n%s\n" title (String.make (String.length title) '-')
    in
    let q = Metrics.quality in
    let p_gain (a : Metrics.measured) (b : Metrics.measured) =
      a.throughput_mops /. b.throughput_mops
    and a_gain (a : Metrics.measured) (b : Metrics.measured) =
      float_of_int a.area /. float_of_int b.area
    and rank l =
      String.concat " > "
        (List.map fst (List.stable_sort (fun (_, a) (_, b) -> compare b a) l))
    in
    section "E5 (paper IV, Verilog): 8x8 units -> 1x8 -> 1x1";
    let v0 = m4 v_initial and v1 = m4 v_row8 and v2 = m4 v_opt in
    pr "initial (8 row + 8 col): f=%.1f MHz  A=%d  latency=%d  Q=%.0f\n"
      v0.fmax_mhz v0.area v0.latency (q v0);
    pr "1 row + 8 col:          P x%.2f, A /%.2f, Q x%.2f   (paper: x1.8, \
        /1.7, x3)\n"
      (p_gain v1 v0) (a_gain v0 v1) (q v1 /. q v0);
    pr "1 row + 1 col:          P x%.2f, A /%.2f, Q x%.2f, latency %d -> %d   \
        (paper: x2, /4.6, x9.4, 17 -> 24)\n"
      (p_gain v2 v0) (a_gain v0 v2) (q v2 /. q v0) v0.latency v2.latency;

    section "E6 (paper IV, MaxJ): matrix/tick vs row/tick";
    let mi = m4 (initial Maxj) and mo = m4 (design Maxj) in
    pr "initial: P=%.1f MOPS (PCIe bound), A=%d, depth=%d ticks\n"
      mi.throughput_mops mi.area mi.latency;
    pr "optimized: area /%.2f, throughput /%.2f   (paper: /2.8 area, /2.7 \
        throughput)\n"
      (a_gain mi mo) (p_gain mi mo);
    pr "quality vs initial Verilog: %.0f%%   (paper: 963%%)\n"
      (100. *. q mi /. q v0);

    section "E7 (paper IV, C): Bambu presets and Vivado HLS pragmas";
    let bi = m3 (initial Bambu) and bo = m3 (design Bambu) in
    pr "Bambu default: periodicity %d cycles @ %.1f MHz -> %.2f MOPS\n"
      bi.periodicity bi.fmax_mhz bi.throughput_mops;
    pr "Bambu PERFORMANCE-MP + SDC: periodicity %d (paper 323 -> 185), P \
        x%.2f (paper x1.7)\n"
      bo.periodicity (p_gain bo bi);
    let vi = m3 (initial Vivado_hls) and vo = m3 (design Vivado_hls) in
    pr "Vivado HLS push-button: periodicity %d (paper 340) — non-inlined \
        units\n"
      vi.periodicity;
    pr "Vivado HLS +INLINE+PARTITION+PIPELINE: periodicity %d, latency %d \
        (paper 8, 26)\n"
      vo.periodicity vo.latency;
    (* C_Q as Table II computes it: both optima at Table II's length. *)
    pr "Vivado HLS quality vs optimized Verilog: %.1f%% (paper 89.7%%)\n"
      (Metrics.controllability ~best:(q (m4 (design Vivado_hls)))
         ~verilog_best:(q v2));

    section "E8 (paper IV-B): the 24-point BSC option grid";
    let areas = List.map (fun d -> (m3 d).Metrics.area) bsc_grid in
    let mn = List.fold_left min max_int areas
    and mx = List.fold_left max 0 areas in
    pr "area across %d configurations: min %d, max %d (spread %.1f%%)\n"
      (List.length areas) mn mx
      (100. *. float_of_int (mx - mn) /. float_of_int mn);
    pr "(the paper: \"the settings have a negligible impact\" — reproduced)\n";

    section "E9 (design choice): HLS memory ports x operator chaining";
    pr "%6s %10s %12s %10s %10s\n" "ports" "chain ns" "cycles" "fmax" "P MOPS";
    List.iter
      (fun (ports, chain, cycles, fmax) ->
        pr "%6d %10.1f %12d %10.1f %10.2f\n" ports chain cycles fmax
          (fmax /. float_of_int cycles))
      grid;
    pr "(longer chains cut the schedule but cost frequency — the SDC \
        trade-off)\n";

    section
      "E10 (extension): second kernel (8-tap circular FIR) - does the \
       ranking extrapolate?";
    pr "%8s %12s %10s %10s %10s %8s\n" "tool" "periodicity" "fmax" "P MOPS" "A"
      "Q";
    let fir_q =
      List.map
        (fun (d : Design.t) ->
          let m = m_fir d in
          pr "%8s %12d %10.1f %10.2f %10d %8.0f\n" (Design.tool_name d.tool)
            m.periodicity m.fmax_mhz m.throughput_mops m.area (q m);
          (Design.tool_name d.tool, q m))
        fir_designs
    in
    let idct_q =
      List.map
        (fun t -> (Design.tool_name t, q (m3 (design t))))
        [ Design.Chisel; Dslx; Bambu ]
    in
    pr "IDCT quality ranking (chisel/xls/bambu): %s\n" (rank idct_q);
    pr "FIR quality ranking:                     %s\n" (rank fir_q);
    pr "(the paper cautions against extrapolating to other kernels; the FIR\n\
       \ favours HC even more, since the HLS designs stay memory-bound)\n";
    (Buffer.contents buf, [])
  end
