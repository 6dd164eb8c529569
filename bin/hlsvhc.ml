(* Command-line interface for the HLS-versus-HC reproduction. *)

open Cmdliner

let tool_conv =
  (* The accepted names live in the Registry's Table I entries;
     [Registry.parse_tools] is the one shared parser and its errors list
     the valid names. *)
  let parse s =
    match Core.Registry.parse_tools s with
    | Ok [ t ] -> Ok t
    | Ok _ -> Error (`Msg (Printf.sprintf "expected a single tool, got %S" s))
    | Error e -> Error (`Msg e)
  in
  let print ppf t = Format.pp_print_string ppf (Core.Design.tool_name t) in
  Arg.conv (parse, print)

let tools_conv =
  let parse s =
    match Core.Registry.parse_tools s with
    | Ok ts -> Ok ts
    | Error e -> Error (`Msg e)
  in
  let print ppf ts =
    Format.pp_print_string ppf
      (String.concat "," (List.map Core.Design.tool_name ts))
  in
  Arg.conv (parse, print)

(* A count (blocks, cycles, a budget, jobs, a serve limit) of zero or
   less would run no work, or refuse all of it, and still look like a
   result, so it is a usage error naming the option, like any other
   malformed value. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let tools_opt =
  Arg.(
    value
    & opt (some tools_conv) None
    & info [ "tools" ] ~docv:"TOOLS"
        ~doc:
          "Restrict to a comma-separated, case-insensitive list of tools \
           (e.g. $(b,verilog,bsv)).  Unknown names fail with the list of \
           valid tools.")

let tool_pos =
  Arg.(required & pos 0 (some tool_conv) None & info [] ~docv:"TOOL")

(* Kernel selection mirrors tool selection: names live on the Kernel
   records, [Core.Kernel.parse_kernel] is the one shared parser and the
   error lists the registered kernels. *)
let kernel_conv =
  let parse s =
    match Core.Kernel.parse_kernel s with
    | Some k -> Ok k
    | None -> Error (`Msg (Core.Kernel.unknown_kernel_msg s))
  in
  let print ppf k = Format.pp_print_string ppf (Core.Kernel.name k) in
  Arg.conv (parse, print)

let kernel_opt =
  Arg.(
    value
    & opt kernel_conv Core.Kernel.idct
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Benchmark kernel to evaluate (case-insensitive; default \
           $(b,idct), the paper's IEEE-1180 inverse DCT).  Registered \
           kernels: $(b,idct), $(b,fir8), $(b,matmul8).  Unknown names \
           fail with the list of valid kernels.")

(* A tool outside the kernel's inventory is a usage error, not an empty
   artifact; [Kernel.inventory_exn] words the one diagnostic. *)
let kernel_inventory kernel tool =
  try Core.Kernel.inventory_exn kernel tool
  with Invalid_argument msg ->
    Printf.eprintf "hlsvhc: %s\n" msg;
    exit 2

let check_kernel_tools kernel tools =
  Option.iter (List.iter (fun t -> ignore (kernel_inventory kernel t))) tools

let opt_flag =
  Arg.(value & flag & info [ "opt"; "optimized" ] ~doc:"Use the optimized design.")

let jobs_opt =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluation worker domains (default: \\$(b,HLSVHC_JOBS) or the \
           machine's recommended domain count).  Results are identical for \
           any job count.")

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the measurement pipeline (per-stage wall \
           times, netlist/schedule sizes, cache counters) and write it to \
           $(docv) as JSON Lines, one span per line with its parent's id.  \
           Summarize with $(b,hlsvhc stats) $(docv).  Tracing does not \
           change any printed artifact.")

let store_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Back the measurement cache with a persistent content-addressed \
           result store rooted at $(docv) (created if missing).  Results \
           survive restarts and are shared with every other client of the \
           same directory — a warm second run re-reads every point instead \
           of re-measuring it.  Entries are validated (schema version, \
           checksum, key) on read; invalid ones are re-measured.")

(* Attach the persistent store before any evaluation fans out; a store
   that cannot be opened is a usage error, not a measurement result. *)
let attach_store =
  Option.map (fun dir ->
      match Store.attach dir with
      | Ok t -> t
      | Error e ->
          Printf.eprintf "hlsvhc: --store %s: %s\n" dir e;
          exit 2)

let keep_going_flag =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:
          "Still print the artifact (and write any $(b,--json)) when design \
           points fail, restricted to the surviving points.  Every point \
           is measured either way; when any fails, the failure summary \
           goes to stderr and the exit code is 1, with or without this \
           flag.  Without it a failed run prints no artifact.")

let fault_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a deterministic fault into the flow (for testing the \
           resilience layer): $(docv) is FAULT:TARGET[:SEED] with FAULT one \
           of $(b,stall), $(b,poison), $(b,protocol), $(b,crash@STAGE), \
           or — for the serve daemon's connection paths — \
           $(b,slow-client), $(b,conn-drop) or $(b,shed) (SEED bounds how \
           many connections fire, 0 = all), and TARGET a Tool/label \
           substring ($(b,*) for every design; unused by the connection \
           faults).")

(* Arm the fault-injection harness from --fault; a malformed spec is a
   usage error, not a measurement result. *)
let arm_fault =
  Option.iter (fun s ->
      match Core.Faultinject.parse s with
      | Ok spec -> Core.Faultinject.arm spec
      | Error e ->
          Printf.eprintf "hlsvhc: --fault %S: %s\n" s e;
          exit 2)

(* Run [f] with tracing enabled when [trace] names a file; the spans are
   drained and written after [f] finishes, even if it raises.  The write
   runs outside any [~finally], so an unwritable trace path surfaces as
   the typed [Core.Trace.Write_error]; when [f] itself raised, that
   exception wins. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file -> (
      Core.Trace.set_enabled true;
      let write () =
        Core.Trace.set_enabled false;
        let spans = Core.Trace.drain () in
        Core.Trace.write_json file spans;
        Printf.eprintf "trace: %d spans -> %s\n%!" (List.length spans) file
      in
      match f () with
      | v ->
          write ();
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (try write () with Core.Trace.Write_error _ -> ());
          Printexc.raise_with_backtrace e bt)

(* The one driver behind table2, fig1, ablations, comply, sweep and dse:
   arm the fault, attach the store, trace, compute, then one epilogue.
   [compute] computes the whole batch through the libraries' result
   paths, which return failures as values, and hands back the artifact's
   printer and the typed failures.  With no failure the artifact is
   printed and the exit code is 0.  With any, the artifact is printed
   only under --keep-going, stderr gets the failure summary, and the exit
   code is 1 in both modes.  stdout is flushed before the summary is
   written, so a capture of both streams reads the artifact, then the
   summary. *)
let run_batch ?store ~fault ~trace ~keep_going compute =
  arm_fault fault;
  ignore (attach_store store);
  let failures =
    with_trace trace (fun () ->
        let emit, failures = compute () in
        if failures = [] || keep_going then emit ();
        failures)
  in
  if failures <> [] then begin
    flush stdout;
    prerr_string (Core.Flow.render_failure_summary failures);
    exit 1
  end

let pick_design kernel tool optimized =
  let inv = kernel_inventory kernel tool in
  if optimized then inv.Core.Kernel.inv_optimized
  else inv.Core.Kernel.inv_initial

let table1_cmd =
  let run () = print_string (Core.Table1.render ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table I (tools under evaluation).")
    Term.(const run $ const ())

let table2_cmd =
  let run kernel tools jobs trace keep_going fault store =
    check_kernel_tools kernel tools;
    run_batch ?store ~fault ~trace ~keep_going (fun () ->
        let rows, failures =
          Core.Table2.compute_result ?jobs ?tools ~kernel ()
        in
        ((fun () -> print_string (Core.Table2.render_rows rows)), failures))
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Measure every initial/optimized design and print Table II.")
    Term.(
      const run $ kernel_opt $ tools_opt $ jobs_opt $ trace_opt
      $ keep_going_flag $ fault_opt $ store_opt)

let fig1_cmd =
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also write the points (tool, label, area, throughput, fmax) as \
             JSON to $(docv), atomically — the machine-readable twin of the \
             ASCII scatter, consumed by DSE overlays and external plotting.")
  in
  let run kernel tools jobs trace keep_going json fault store =
    check_kernel_tools kernel tools;
    run_batch ?store ~fault ~trace ~keep_going (fun () ->
        let series, failures =
          Core.Fig1.compute_result ?jobs ?tools ~kernel ()
        in
        let emit () =
          print_string (Core.Fig1.render_series ~kernel series);
          Option.iter
            (fun path ->
              Core.Fig1.write_json ~kernel path series;
              Printf.eprintf "fig1: wrote %s\n%!" path)
            json
        in
        (emit, failures))
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Run the DSE sweeps and print the Fig. 1 scatter.")
    Term.(
      const run $ kernel_opt $ tools_opt $ jobs_opt $ trace_opt
      $ keep_going_flag $ json $ fault_opt $ store_opt)

(* No --keep-going: every line is a ratio over several points, so any
   failure prints only the summary. *)
let ablations_cmd =
  let run jobs trace fault store =
    run_batch ?store ~fault ~trace ~keep_going:false (fun () ->
        let text, failures = Core.Ablations.compute_result ?jobs () in
        ((fun () -> print_string text), failures))
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Measure the paper's Section IV narratives, a ports x chaining \
          grid and the second-kernel extension; print them as ratios.")
    Term.(const run $ jobs_opt $ trace_opt $ fault_opt $ store_opt)

let comply_cmd =
  let blocks =
    Arg.(value & opt pos_int 500 & info [ "blocks" ] ~doc:"Blocks per condition (500 is about the statistical minimum).")
  in
  let run kernel blocks jobs trace keep_going fault =
    (* comply probes only [crash@comply], [poison] and [protocol]; any
       other fault would be silently ignored, so it is refused.  The
       batched testbench runs every block to completion: there is no
       cycle budget for a [stall] fault to clamp. *)
    let refuse fault why =
      Printf.eprintf "hlsvhc comply: cannot inject %s: %s\n"
        (Core.Faultinject.fault_to_string fault)
        why;
      exit 2
    in
    (match Option.map Core.Faultinject.parse fault with
    | Some (Ok { Core.Faultinject.fault = Stall; _ }) ->
        refuse Stall "the batched testbench has no cycle budget"
    | Some
        (Ok { Core.Faultinject.fault = Crash "comply" | Poison | Protocol; _ })
    | Some (Error _)
    | None ->
        ()
    | Some (Ok { Core.Faultinject.fault; _ }) ->
        refuse fault "comply injects only crash@comply, poison and protocol");
    run_batch ~fault ~trace ~keep_going (fun () ->
        let spec = Core.Kernel.spec kernel in
        let designs =
          List.map (Core.Kernel.optimized kernel) (Core.Kernel.tools kernel)
        in
        (* The pass text names the procedure the kernel's spec runs: the
           IEEE 1180-1990 statistical test for the IDCT, bit-true against
           the golden reference for the extension kernels. *)
        let pass_text =
          if Core.Kernel.name kernel = "idct" then "IEEE 1180-1990 PASS"
          else "bit-true PASS"
        in
        let outcomes =
          Core.Evaluate.compliance_all_result ?jobs ~blocks ~spec designs
        in
        let emit () =
          List.iter
            (fun ((d : Core.Design.t), r) ->
              Printf.printf "%-12s optimized: %s\n%!"
                (Core.Design.tool_name d.Core.Design.tool)
                (match r with
                | Ok true -> pass_text
                | Ok false -> "FAIL"
                | Error _ -> "ERROR"))
            outcomes
        in
        (emit, Core.Flow.errors (List.map snd outcomes)))
  in
  Cmd.v
    (Cmd.info "comply"
       ~doc:
         "Accuracy test of every optimized design (IEEE 1180-1990 for the \
          IDCT, bit-true for extension kernels).")
    Term.(
      const run $ kernel_opt $ blocks $ jobs_opt $ trace_opt $ keep_going_flag
      $ fault_opt)

let emit_cmd =
  let run kernel tool optimized =
    let d = pick_design kernel tool optimized in
    print_string d.Core.Design.listing;
    print_newline ()
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Print a design's source listing.")
    Term.(const run $ kernel_opt $ tool_pos $ opt_flag)

let verilog_cmd =
  let run kernel tool optimized =
    let d = pick_design kernel tool optimized in
    match d.Core.Design.impl with
    | Core.Design.Stream c -> print_string (Hw.Verilog.emit (Core.Design.force c))
    | Core.Design.Pcie p ->
        print_string
          (Hw.Verilog.emit (Core.Design.force p.Core.Design.system).Maxj.Manager.kernel)
  in
  Cmd.v
    (Cmd.info "verilog"
       ~doc:"Emit the synthesized design as structural Verilog.")
    Term.(const run $ kernel_opt $ tool_pos $ opt_flag)

let sim_cmd =
  let run kernel tool optimized =
    let d = pick_design kernel tool optimized in
    let m = Core.Evaluate.measure ~spec:(Core.Kernel.spec kernel) d in
    Format.printf "%s %s (%s)@.  %a@.  Q = %.0f OPS/(LUT+FF)@."
      (Core.Design.tool_name tool) d.Core.Design.label
      d.Core.Design.config_desc Core.Metrics.pp_measured m
      (Core.Metrics.quality m)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulate and synthesize one design; print metrics.")
    Term.(const run $ kernel_opt $ tool_pos $ opt_flag)

let waves_cmd =
  let out =
    Arg.(value & opt string "waves.vcd" & info [ "o"; "output" ] ~doc:"Output VCD file.")
  in
  let cycles =
    Arg.(value & opt pos_int 64 & info [ "cycles" ] ~doc:"Cycles to record.")
  in
  let run kernel tool optimized out cycles =
    let d = pick_design kernel tool optimized in
    match d.Core.Design.impl with
    | Core.Design.Pcie _ ->
        Printf.eprintf
          "hlsvhc waves: %s is a PCIe system design; waveforms record \
           stream netlists\n"
          (Core.Design.tool_name tool);
        exit 2
    | Core.Design.Stream c ->
        let circuit = Core.Design.force c in
        let sim = Hw.Sim.create circuit in
        Hw.Sim.reset sim;
        (* drive one matrix of the kernel's own stimulus so the trace
           shows real activity *)
        let m =
          match (Core.Kernel.spec kernel).Core.Flow.stimulus 1 with
          | m :: _ -> m
          | [] -> Axis.Block.create ()
        in
        let w = Hw.Waves.create sim in
        Hw.Sim.set sim Axis.Stream.m_ready 1;
        for cyc = 0 to cycles - 1 do
          let beat = cyc mod 8 in
          Hw.Sim.set sim Axis.Stream.s_valid 1;
          Hw.Sim.set sim Axis.Stream.s_last (if beat = 7 then 1 else 0);
          for l = 0 to 7 do
            Hw.Sim.set sim (Axis.Stream.s_data l)
              (Axis.Block.get m ~row:beat ~col:l)
          done;
          Hw.Waves.step w
        done;
        Core.Trace.write_atomic out (fun oc ->
            output_string oc (Hw.Waves.to_string w));
        Printf.printf "wrote %d cycles of %s to %s\n" cycles
          circuit.Hw.Netlist.circuit_name out
  in
  Cmd.v
    (Cmd.info "waves" ~doc:"Record a VCD waveform of a design under stream traffic.")
    Term.(const run $ kernel_opt $ tool_pos $ opt_flag $ out $ cycles)

let sweep_cmd =
  let run kernel tool jobs trace keep_going fault store =
    let designs = (kernel_inventory kernel tool).Core.Kernel.inv_sweep in
    run_batch ?store ~fault ~trace ~keep_going (fun () ->
        let spec = Core.Kernel.spec kernel in
        let outcomes =
          Core.Evaluate.measure_all_result ?jobs ~matrices:3 ~spec designs
        in
        let emit () =
          List.iter2
            (fun (d : Core.Design.t) -> function
              | Ok (m : Core.Metrics.measured) ->
                  Printf.printf "%-34s A=%7d  P=%8.2f MOPS  f=%7.2f MHz\n%!"
                    d.Core.Design.label m.Core.Metrics.area
                    m.Core.Metrics.throughput_mops m.Core.Metrics.fmax_mhz
              | Error _ -> ())
            designs outcomes
        in
        (emit, Core.Flow.errors outcomes))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Measure every configuration of one tool.")
    Term.(
      const run $ kernel_opt $ tool_pos $ jobs_opt $ trace_opt
      $ keep_going_flag $ fault_opt $ store_opt)

let dse_cmd =
  let strategy_conv =
    Arg.conv
      ( (fun s ->
          match Dse.Strategy.parse s with
          | Ok v -> Ok v
          | Error e -> Error (`Msg e)),
        fun ppf s -> Format.pp_print_string ppf (Dse.Strategy.to_string s) )
  in
  let objective_conv =
    Arg.conv
      ( (fun s ->
          match Dse.Engine.parse_objective s with
          | Ok v -> Ok v
          | Error e -> Error (`Msg e)),
        fun ppf o -> Format.pp_print_string ppf (Dse.Engine.objective_name o) )
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Dse.Strategy.Exhaustive
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Search strategy: $(b,exhaustive) (the full space, sweep \
             order), $(b,random) (a seeded permutation up to the budget) \
             or $(b,hillclimb) (seeded multi-restart neighborhood ascent \
             on the objective).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "PRNG seed for random/hillclimb.  The same seed gives a \
             bit-identical run — candidate sequence and frontier — for \
             any $(b,--jobs) count.")
  in
  let budget =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "budget" ] ~docv:"K"
          ~doc:
            "Evaluation budget: at most $(docv) distinct candidates are \
             measured (memoized revisits are free).  Default: the whole \
             space.")
  in
  let objective =
    Arg.(
      value
      & opt objective_conv Dse.Engine.Quality
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "Hillclimb objective: $(b,quality) (Q = P/A), $(b,throughput) \
             or $(b,area).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:"Write the run record (points, frontier, stats) to $(docv).")
  in
  let check_fig1 =
    Arg.(
      value & flag
      & info [ "check-fig1" ]
          ~doc:
            "Cross-check against Fig. 1: the frontier of the exhaustive \
             strategy over the paper's sweep space must reproduce exactly \
             the Pareto-optimal subset of the Fig. 1 point set.  Requires \
             $(b,--strategy exhaustive) and no $(b,--budget); exits \
             nonzero on a mismatch.")
  in
  let transfo_flag =
    Arg.(
      value & flag
      & info [ "transfo" ]
          ~doc:
            "Extend every selected tool's space with a \
             transformation-sequence axis: one extra chart enumerating \
             the initial design plus verified netlist-rewrite scripts \
             ($(b,strength_reduce), $(b,narrow) and their composition).  \
             Derived candidates are re-derived and equivalence-checked \
             when first measured.")
  in
  let run kernel strategy seed budget objective tools jobs json check_fig1
      transfo trace keep_going fault store =
    check_kernel_tools kernel tools;
    if check_fig1 && (strategy <> Dse.Strategy.Exhaustive || budget <> None)
    then begin
      Printf.eprintf
        "hlsvhc dse: --check-fig1 requires --strategy exhaustive and no \
         --budget (the check is over the full sweep space)\n";
      exit 2
    end;
    if check_fig1 && transfo then begin
      Printf.eprintf
        "hlsvhc dse: --check-fig1 is over the paper's sweep space; it \
         cannot be combined with --transfo\n";
      exit 2
    end;
    run_batch ?store ~fault ~trace ~keep_going (fun () ->
        let selected =
          match tools with Some ts -> ts | None -> Core.Kernel.tools kernel
        in
        let spaces = List.map (Dse.Space.of_tool ~kernel) selected in
        let spaces =
          if transfo then List.map Dse.Space.with_scripts spaces else spaces
        in
        let result =
          Dse.Engine.run ?jobs ?budget ~seed ~strategy ~objective spaces
        in
        let failures =
          Core.Flow.errors
            (List.map
               (fun (ev : Dse.Engine.evaluated) -> ev.Dse.Engine.ev_outcome)
               result.Dse.Engine.res_evaluated)
        in
        (* A search with failed points has an incomplete frontier, so the
           Fig. 1 cross-check only runs on a clean one. *)
        let check =
          if check_fig1 && failures = [] then
            Some
              (Dse.Report.crosscheck_fig1 ?jobs ~tools:selected ~kernel result)
          else None
        in
        let emit () =
          print_string (Dse.Report.render result);
          Option.iter
            (fun path ->
              Dse.Report.write_json path result;
              Printf.eprintf "dse: wrote %s\n%!" path)
            json;
          match check with
          | Some (Ok msg) -> print_string (msg ^ "\n")
          | Some (Error diff) ->
              prerr_string diff;
              exit 1
          | None -> ()
        in
        (emit, failures))
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Search the configuration space (exhaustive/random/hillclimb \
          under an evaluation budget) and print the explored cloud with \
          its Pareto frontier.")
    Term.(
      const run $ kernel_opt $ strategy $ seed $ budget $ objective
      $ tools_opt $ jobs_opt $ json $ check_fig1 $ transfo_flag $ trace_opt
      $ keep_going_flag $ fault_opt $ store_opt)

let transfo_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "List the transformation catalogue (names, aliases, \
             arguments, preconditions) and exit.")
  in
  let script_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Semicolon-separated transformation sequence, e.g. \
             $(b,\"retime 2; strength_reduce\").  Every step is verified \
             against its obligation and its result crosschecked \
             (levelized simulator against the reference interpreter) \
             before the next one runs.")
  in
  let subject_opt =
    Arg.(
      value & opt string "row"
      & info [ "subject" ] ~docv:"SUBJECT"
          ~doc:
            "What to transform: $(b,row) (the bare IDCT row datapath, \
             combinational), $(b,arch) (the flat Chisel matrix \
             architecture, accepts the staging transformations), or \
             $(b,TOOL)[$(b,/optimized)] (a registered design's stream \
             netlist, e.g. $(b,chisel) or $(b,verilog/optimized)).")
  in
  let cycles_opt =
    Arg.(
      value & opt pos_int 256
      & info [ "cycles" ] ~docv:"N"
          ~doc:"Random-stimulus cycles per verification obligation.")
  in
  let seed_opt =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N" ~doc:"Stimulus seed for the verifiers.")
  in
  let out_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the transformed design as structural Verilog to $(docv).")
  in
  let parse_subject spec =
    match String.lowercase_ascii spec with
    | "row" ->
        Transfo.Subject.of_circuit
          (Chisel.Idct_gen.row_comb Chisel.Idct_gen.Inferred ~name:"row")
    | "arch" ->
        Transfo.Subject.of_arch
          (Chisel.Idct_gen.arch Chisel.Idct_gen.Inferred ~name:"chisel_arch"
             ())
    | spec -> (
        let tool_str, optimized =
          match String.index_opt spec '/' with
          | None -> (spec, false)
          | Some i -> (
              let variant =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              ( String.sub spec 0 i,
                match variant with
                | "optimized" | "opt" -> true
                | "initial" -> false
                | _ ->
                    Printf.eprintf
                      "hlsvhc transfo: unknown design variant %S (expected \
                       initial or optimized)\n"
                      variant;
                    exit 2 ))
        in
        match Core.Registry.parse_tool tool_str with
        | None ->
            Printf.eprintf "hlsvhc transfo: %s; or use %s\n"
              (Core.Registry.unknown_tool_msg tool_str)
              "\"row\" / \"arch\"";
            exit 2
        | Some t -> (
            match
              (pick_design Core.Kernel.idct t optimized).Core.Design.impl
            with
            | Core.Design.Stream l ->
                Transfo.Subject.of_circuit (Core.Design.force l)
            | Core.Design.Pcie _ ->
                Printf.eprintf
                  "hlsvhc transfo: %s is a PCIe system design; \
                   transformations operate on stream netlists\n"
                  (Core.Design.tool_name t);
                exit 2))
  in
  let run list_catalog script subject cycles seed out trace =
    if list_catalog then
      List.iter
        (fun (module T : Transfo.Catalog.TRANSFO) ->
          let aliases =
            match T.aliases with
            | [] -> ""
            | a -> " (aliases: " ^ String.concat ", " a ^ ")"
          in
          Printf.printf "%s%s%s\n    %s\n    precondition: %s\n" T.name
            (Transfo.Catalog.arg_doc T.arg)
            aliases T.description T.precondition)
        Transfo.Catalog.all
    else
      match script with
      | None ->
          Printf.eprintf
            "hlsvhc transfo: nothing to do (use --script SCRIPT, or --list)\n";
          exit 2
      | Some src -> (
          let script =
            match Transfo.Script.parse src with
            | Ok s -> s
            | Error e ->
                Printf.eprintf "hlsvhc transfo: --script: %s\n" e;
                exit 2
          in
          let subject = parse_subject subject in
          match
            with_trace trace (fun () ->
                Transfo.Engine.run ~cycles ~seed script subject)
          with
          | Error (Transfo.Engine.Unknown_transfo _ as e) ->
              Printf.eprintf "hlsvhc transfo: %s\n"
                (Transfo.Engine.error_to_string e);
              exit 2
          | Error e ->
              Printf.eprintf "hlsvhc transfo: %s\n"
                (Transfo.Engine.error_to_string e);
              exit 1
          | Ok r ->
              List.iter
                (fun (sr : Transfo.Engine.step_report) ->
                  Printf.printf "%-28s %6d -> %6d nodes  [%s] verified\n"
                    sr.Transfo.Engine.sr_step sr.Transfo.Engine.sr_nodes_before
                    sr.Transfo.Engine.sr_nodes_after
                    sr.Transfo.Engine.sr_obligation)
                r.Transfo.Engine.rep_steps;
              let subj = r.Transfo.Engine.rep_subject in
              let latency =
                if subj.Transfo.Subject.latency_added > 0 then
                  Printf.sprintf ", +%d cycles latency"
                    subj.Transfo.Subject.latency_added
                else ""
              in
              Printf.printf "result: %s (%d nodes%s)\n"
                subj.Transfo.Subject.circuit.Hw.Netlist.circuit_name
                (Hw.Netlist.num_nodes subj.Transfo.Subject.circuit)
                latency;
              Option.iter
                (fun path ->
                  Core.Trace.write_atomic path (fun oc ->
                      output_string oc
                        (Hw.Verilog.emit subj.Transfo.Subject.circuit));
                  Printf.eprintf "transfo: wrote %s\n%!" path)
                out)
  in
  Cmd.v
    (Cmd.info "transfo"
       ~doc:
         "Apply a scripted, equivalence-verified transformation sequence \
          to a design.")
    Term.(
      const run $ list_flag $ script_opt $ subject_opt $ cycles_opt
      $ seed_opt $ out_opt $ trace_opt)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on (created; unlinked on exit).")
  in
  let max_conns =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Drain after serving $(docv) connections (soak tests and \
             benchmarks); default: serve until a $(b,shutdown) request or \
             SIGTERM/SIGINT.")
  in
  let conn_workers =
    Arg.(
      value & opt pos_int 4
      & info [ "conn-workers" ] ~docv:"N"
          ~doc:
            "Connection-handling worker domains: a slow client occupies one \
             of $(docv) slots, never the accept loop.")
  in
  let conn_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "conn-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection idle read/write deadline: a client that stays \
             silent (or stops reading) this long is answered nothing, \
             closed, and counted in the $(b,timeouts) stat.")
  in
  let batch_deadline =
    Arg.(
      value & opt float 120.0
      & info [ "batch-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for receiving one whole batch — bounds a \
             client trickling bytes to dodge the idle deadline.")
  in
  let max_inflight =
    Arg.(
      value & opt pos_int 16
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Load shedding: beyond $(docv) accepted-but-unfinished \
             connections the daemon answers $(b,busy\\\\tretry-after\\\\tMS) \
             immediately instead of queueing unboundedly.")
  in
  let max_batch =
    Arg.(
      value & opt pos_int 256
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Most request lines accepted in one batch; larger batches \
             answer a single $(b,bad) line.")
  in
  let run socket jobs store max_conns conn_workers conn_timeout batch_deadline
      max_inflight max_batch fault trace =
    arm_fault fault;
    let store_t = attach_store store in
    Printf.eprintf
      "hlsvhc serve: listening on %s (store: %s, jobs: %s, workers: %d, \
       conn-timeout: %.1fs, max-inflight: %d)\n\
       %!"
      socket
      (match store_t with Some t -> Store.dir t | None -> "none")
      (match jobs with
      | Some j -> string_of_int j
      | None -> "default")
      conn_workers conn_timeout max_inflight;
    let counters =
      with_trace trace (fun () ->
          Serve.run
            {
              (Serve.default_config ~socket_path:socket) with
              jobs;
              store = store_t;
              max_conns;
              conn_workers;
              conn_timeout;
              batch_deadline;
              max_inflight;
              max_batch;
            })
    in
    Printf.eprintf
      "hlsvhc serve: done — %d connections, %d evals (%d errors, %d memo \
       hits, %d timeouts, %d shed, %d drops)\n\
       %!"
      (Atomic.get counters.Serve.conns)
      (Atomic.get counters.Serve.evals)
      (Atomic.get counters.Serve.eval_errors)
      (Atomic.get counters.Serve.memo_hits)
      (Atomic.get counters.Serve.conn_timeouts)
      (Atomic.get counters.Serve.shed)
      (Atomic.get counters.Serve.drops)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the evaluation daemon: accept batched evaluation requests \
          over a Unix socket on a bounded worker pool (per-connection \
          deadlines, load shedding, graceful drain on SIGTERM), fan each \
          batch onto the domain pool, answer with typed results, and (with \
          $(b,--store)) share one persistent warm cache across clients and \
          restarts.")
    Term.(
      const run $ socket $ jobs_opt $ store_opt $ max_conns $ conn_workers
      $ conn_timeout $ batch_deadline $ max_inflight $ max_batch $ fault_opt
      $ trace_opt)

(* The store janitor: fsck validates entries the way a read would and
   can delete the invalid ones; gc evicts deterministically under an
   entry/byte budget.  Both are safe against a live daemon — entries
   are atomic and re-healed on miss. *)
let store_dir_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

let store_fsck_cmd =
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Delete every invalid entry (safe: readers re-measure and heal \
             on the next miss).")
  in
  let run dir repair =
    match Store.fsck ~repair dir with
    | Error e ->
        Printf.eprintf "hlsvhc store fsck: %s\n" e;
        exit 2
    | Ok r ->
        Printf.printf "%s: %d entries, %d valid, %d invalid\n" dir
          r.Store.fk_total r.Store.fk_valid
          (List.length r.Store.fk_invalid);
        List.iter
          (fun { Store.fi_file; fi_reason } ->
            Printf.printf "invalid: %s (%s)\n" fi_file fi_reason)
          r.Store.fk_invalid;
        if repair then
          Printf.printf "repaired: deleted %d invalid entries\n"
            r.Store.fk_repaired;
        if r.Store.fk_invalid <> [] && not repair then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Validate every entry of a result store (magic, schema version, \
          checksum, metrics parse, filename-addresses-key); exits nonzero \
          when invalid entries remain.")
    Term.(const run $ store_dir_pos $ repair)

let store_gc_cmd =
  let max_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:"Keep at most $(docv) entries (the newest by mtime).")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"B"
          ~doc:"Keep at most $(docv) bytes of entries (the newest by mtime).")
  in
  let run dir max_entries max_bytes =
    match Store.gc ?max_entries ?max_bytes dir with
    | Error e ->
        Printf.eprintf "hlsvhc store gc: %s\n" e;
        exit 2
    | Ok r ->
        Printf.printf
          "%s: kept %d of %d entries (%d -> %d bytes), deleted %d\n" dir
          r.Store.gr_kept r.Store.gr_total r.Store.gr_bytes_before
          r.Store.gr_bytes_after r.Store.gr_deleted
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Evict store entries oldest-mtime-first (ties by filename — \
          deterministic) down to an entry and/or byte budget.  Safe under \
          a live daemon: evicted entries re-heal on the next miss.")
    Term.(const run $ store_dir_pos $ max_entries $ max_bytes)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Janitor commands for a persistent result store directory \
          ($(b,fsck), $(b,gc)).")
    [ store_fsck_cmd; store_gc_cmd ]

let stats_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json")
  in
  let by_tool =
    Arg.(
      value
      & opt (enum [ ("stage", false); ("tool", true) ]) false
      & info [ "by" ] ~docv:"KEY"
          ~doc:
            "Group the time table by $(b,stage), or by $(b,tool): one row \
             per stage and tool (a design point's tool, or an engine \
             group), self time first.")
  in
  let diff =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"BEFORE"
          ~doc:
            "Compare the trace $(docv) with TRACE.json: self time before \
             and after, and its change, per stage and then per stage and \
             tool ($(b,--by) does not apply).")
  in
  let run by_tool diff file =
    let render () =
      match diff with
      | Some before -> Core.Trace.render_diff before file
      | None -> Core.Trace.render_stats ~by_tool file
    in
    match render () with
    | s -> print_string s
    | exception Sys_error e ->
        Printf.eprintf "hlsvhc stats: %s\n" e;
        exit 1
    | exception Failure e ->
        Printf.eprintf "hlsvhc stats: cannot parse %s\n" e;
        exit 1
    | exception e ->
        Printf.eprintf "hlsvhc stats: unexpected error reading %s: %s\n" file
          (Printexc.to_string e);
        exit 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize a trace recorded with --trace: per-domain busy time, \
          per-stage inclusive and self wall time, and counter totals; or, \
          with $(b,--diff), the self-time change from another trace.")
    Term.(const run $ by_tool $ diff $ file)

let main =
  Cmd.group
    (Cmd.info "hlsvhc" ~version:"1.0"
       ~doc:
         "Reproduction of 'High-Level Synthesis versus Hardware \
          Construction' (DATE 2023).")
    [ table1_cmd; table2_cmd; fig1_cmd; ablations_cmd; comply_cmd; dse_cmd;
      emit_cmd; verilog_cmd; sim_cmd; sweep_cmd; transfo_cmd; serve_cmd;
      store_cmd; waves_cmd; stats_cmd ]

(* The one place an unwritable output path is reported.  Every artifact
   file (--json, --trace, -o) is written through Core.Trace.write_atomic,
   whose typed failure is a one-line error and exit 1.  Any other
   uncaught exception is still an internal error, exit 125. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Core.Trace.Write_error { wr_path; wr_reason } ->
      Printf.eprintf "hlsvhc: cannot write %s: %s\n" wr_path wr_reason;
      exit 1
  | exception e ->
      Printf.eprintf "hlsvhc: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
