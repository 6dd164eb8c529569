type column = {
  design : Design.t;
  measured : Metrics.measured;
  loc : int;
  alpha : float;
  quality : float;
}

type row = {
  tool : Design.tool;
  initial : column;
  optimized : column;
  delta_l : int;
  controllability : float;
  flexibility : float;
}

let column ~anchor_loc (d : Design.t) m =
  {
    design = d;
    measured = m;
    loc = Design.loc d;
    alpha = Metrics.automation ~verilog_loc:anchor_loc ~loc:(Design.loc d);
    quality = Metrics.quality m;
  }

let compute_result ?jobs ?tools ?(kernel = Kernel.idct) () =
  let spec = Kernel.spec kernel in
  let kernel_tools = Kernel.tools kernel in
  (* The first registered tool anchors the relative indicators — Verilog
     for the paper's IDCT, the construction eDSL for the extension
     kernels. *)
  let anchor = List.hd kernel_tools in
  let selected =
    match tools with
    | None -> kernel_tools
    | Some ts -> List.filter (fun t -> List.mem t ts) kernel_tools
  in
  (* Measure every initial/optimized design on the domain pool, then
     assemble the rows sequentially from the returned list.  One failed
     design costs its own tool's column pair, not the table.  A [--tools]
     restriction still measures the anchor pair: alpha and C_Q are
     normalized against it. *)
  let measured_tools =
    if List.mem anchor selected then selected else anchor :: selected
  in
  let designs =
    List.concat_map
      (fun t -> [ Kernel.initial kernel t; Kernel.optimized kernel t ])
      measured_tools
  in
  let outcomes = Evaluate.measure_all_result ?jobs ~spec designs in
  let results = List.combine designs outcomes in
  let rec by_tool ts rs =
    match (ts, rs) with
    | t :: ts, i :: o :: rs -> (t, (i, o)) :: by_tool ts rs
    | _ -> []
  in
  let measured = by_tool measured_tools results in
  let rows =
    match List.assoc anchor measured with
    | (v_init, Ok _), (v_opt, Ok v_opt_m) ->
        (* The paper normalizes alpha by the Verilog LOC of the matching
           configuration; we use the initial anchor LOC for the initial
           columns and the optimized anchor LOC for the optimized ones.
           The anchor optimum anchors C_Q at 100%. *)
        let v_best_q = Metrics.quality v_opt_m in
        List.filter_map
          (fun tool ->
            match List.assoc tool measured with
            | (di, Ok mi), (dopt, Ok mopt) ->
                let initial = column ~anchor_loc:(Design.loc v_init) di mi in
                let optimized =
                  column ~anchor_loc:(Design.loc v_opt) dopt mopt
                in
                let delta_l = Kernel.delta_loc kernel tool in
                Some
                  {
                    tool;
                    initial;
                    optimized;
                    delta_l;
                    controllability =
                      Metrics.controllability ~best:optimized.quality
                        ~verilog_best:v_best_q;
                    flexibility =
                      Metrics.flexibility ~best:optimized.quality
                        ~initial:initial.quality ~delta_loc:delta_l;
                  }
            | _ -> None)
          selected
    | _ ->
        (* Every indicator is normalized against the anchor columns
           (alpha, C_Q); without them there is no table to assemble. *)
        []
  in
  (rows, Flow.errors outcomes)

let compute ?jobs ?tools ?kernel () =
  Flow.fail_fast (compute_result ?jobs ?tools ?kernel ())

let render_rows rows =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let header =
    List.map
      (fun r ->
        Printf.sprintf "%s/%s" (Design.language_name r.tool)
          (Design.tool_name r.tool))
      rows
  in
  pr "%-24s" "indicator";
  List.iter (fun h -> pr " | %-22s" h) header;
  pr "\n%s\n" (String.make (24 + (25 * List.length rows)) '-');
  let line name f =
    pr "%-24s" name;
    List.iter (fun r -> pr " | %-22s" (f r)) rows;
    pr "\n"
  in
  let pair fi fo r = Printf.sprintf "%s / %s" (fi r) (fo r) in
  line "LOC (initial/opt)"
    (pair (fun r -> string_of_int r.initial.loc)
       (fun r -> string_of_int r.optimized.loc));
  line "Modification dL" (fun r -> string_of_int r.delta_l);
  line "Automation alpha"
    (pair (fun r -> Printf.sprintf "%.1f%%" r.initial.alpha)
       (fun r -> Printf.sprintf "%.1f%%" r.optimized.alpha));
  line "Quality Q = P/A"
    (pair (fun r -> Printf.sprintf "%.0f" r.initial.quality)
       (fun r -> Printf.sprintf "%.0f" r.optimized.quality));
  line "Controllability C_Q" (fun r -> Printf.sprintf "%.1f%%" r.controllability);
  line "Flexibility F_Q" (fun r -> Printf.sprintf "%.1f" r.flexibility);
  line "Frequency, MHz"
    (pair (fun r -> Printf.sprintf "%.2f" r.initial.measured.Metrics.fmax_mhz)
       (fun r -> Printf.sprintf "%.2f" r.optimized.measured.Metrics.fmax_mhz));
  line "Throughput, MOPS"
    (pair
       (fun r -> Printf.sprintf "%.2f" r.initial.measured.Metrics.throughput_mops)
       (fun r -> Printf.sprintf "%.2f" r.optimized.measured.Metrics.throughput_mops));
  line "Latency, cycles"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.latency)
       (fun r -> string_of_int r.optimized.measured.Metrics.latency));
  line "Periodicity, cycles"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.periodicity)
       (fun r -> string_of_int r.optimized.measured.Metrics.periodicity));
  line "Area A = LUT*+FF*"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.area)
       (fun r -> string_of_int r.optimized.measured.Metrics.area));
  line "N*_LUT (maxdsp=0)"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.luts_nodsp)
       (fun r -> string_of_int r.optimized.measured.Metrics.luts_nodsp));
  line "N*_FF (maxdsp=0)"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.ffs_nodsp)
       (fun r -> string_of_int r.optimized.measured.Metrics.ffs_nodsp));
  line "N_LUT"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.luts)
       (fun r -> string_of_int r.optimized.measured.Metrics.luts));
  line "N_FF"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.ffs)
       (fun r -> string_of_int r.optimized.measured.Metrics.ffs));
  line "N_DSP"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.dsps)
       (fun r -> string_of_int r.optimized.measured.Metrics.dsps));
  line "N_IO"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.ios)
       (fun r -> string_of_int r.optimized.measured.Metrics.ios));
  Buffer.contents buf
