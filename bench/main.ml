(* Warm throughput of the hot layer, which no golden artifact measures:
   the levelized simulator against its reference interpreter, written to
   BENCH_sim.json.  The paper's tables, figure and Section IV ablations
   are [hlsvhc] subcommands pinned by test/golden, and perfbench/ times
   the cold workloads.  Run with [dune exec bench/main.exe]. *)

let idct = Core.Kernel.idct

let line = String.make 78 '='

let section title =
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Simulation engines: the levelized batch simulator (Hw.Sim) vs its    *)
(* oracle, the reference interpreter (Hw.Interp)                        *)
(* ------------------------------------------------------------------ *)

type engine_row = {
  er_name : string;
  er_nodes : int;          (* netlist nodes *)
  er_compiled : int;       (* instructions in the levelized schedule *)
  er_ref_cps : float;      (* reference interpreter, cycles/sec *)
  er_level_cps : float;    (* levelized engine at batch 1, cycles/sec *)
  er_batch : int;          (* lanes in the batched run *)
  er_batch_cps : float;    (* levelized batched, aggregate lane-cycles/sec *)
}

let bench_batch = 8

let stream_circuit (d : Core.Design.t) =
  match d.Core.Design.impl with
  | Core.Design.Stream c -> Core.Design.force c
  | Core.Design.Pcie _ -> assert false

(* Deterministic stimulus: every input wiggles every cycle, every output is
   read every cycle and folded into a checksum, so no engine can cheat and
   the checksums double as a correctness check.  [lane_salt] perturbs the
   stream per batch lane; lane 0 uses salt 0, so its checksum is comparable
   with the single-lane engines'. *)
let stimulus ~lane_salt k i = ((k * 0x9E37) lxor (i * 0x79B9)) + lane_salt

let drive ~set ~get ~step (c : Hw.Netlist.t) cycles =
  let ins = List.map fst c.Hw.Netlist.inputs
  and outs = List.map fst c.Hw.Netlist.outputs in
  let sum = ref 0 in
  let t0 = Unix.gettimeofday () in
  for k = 0 to cycles - 1 do
    List.iteri (fun i nm -> set nm (stimulus ~lane_salt:0 k i)) ins;
    List.iter (fun nm -> sum := !sum lxor get nm) outs;
    step ()
  done;
  (Unix.gettimeofday () -. t0, !sum)

(* Every lane driven with its own salted stream; only lane 0's outputs are
   folded into the checksum (the per-lane streams are cross-checked by
   the batched Equiv.crosscheck before any timing runs). *)
let drive_batch sim (c : Hw.Netlist.t) cycles =
  let ins = List.map fst c.Hw.Netlist.inputs
  and outs = List.map fst c.Hw.Netlist.outputs in
  let b = Hw.Sim.batch sim in
  let sum = ref 0 in
  let t0 = Unix.gettimeofday () in
  for k = 0 to cycles - 1 do
    for lane = 0 to b - 1 do
      List.iteri
        (fun i nm ->
          Hw.Sim.set sim ~lane nm (stimulus ~lane_salt:(lane * 0x5b) k i))
        ins
    done;
    List.iter (fun nm -> sum := !sum lxor Hw.Sim.get sim nm) outs;
    Hw.Sim.step sim
  done;
  (Unix.gettimeofday () -. t0, !sum)

(* Per-engine timing: calibrate THIS engine's cycle count until one timed
   run takes >= 0.3 s (a count calibrated on a fast engine would let a
   slow one take minutes, and vice versa leave the fast one measuring
   timer noise in microseconds), then take the best of 3 runs at that
   count.  [run] must create a fresh simulator per call so every run
   starts from reset. *)
let time_cps run =
  let target = 0.3 in
  let n = ref 512 in
  let dt = ref (fst (run !n)) in
  while !dt < target do
    (* Scale toward ~1.2x the target using the measured rate; the [max]
       guarantees progress even on a sub-resolution measurement. *)
    let scale = 1.2 *. target /. Float.max !dt 1e-6 in
    n := max (!n + 1) (int_of_float (float_of_int !n *. Float.min scale 64.));
    dt := fst (run !n)
  done;
  let best = ref !dt in
  for _ = 1 to 2 do
    let d, _ = run !n in
    if d < !best then best := d
  done;
  float_of_int !n /. Float.max !best epsilon_float

let measure_engines name c =
  List.iter
    (fun (lanes, cycles) ->
      match Hw.Equiv.crosscheck ~cycles ~lanes c with
      | Hw.Equiv.Equivalent -> ()
      | r ->
          failwith
            (Format.asprintf "crosscheck failed on %s at %d lane(s): %a" name
               lanes Hw.Equiv.pp_result r))
    [ (1, 256); (bench_batch, 128) ];
  let run_ref n =
    let itp = Hw.Interp.create c in
    drive ~set:(Hw.Interp.set itp) ~get:(Hw.Interp.get itp)
      ~step:(fun () -> Hw.Interp.step itp)
      c n
  in
  let run_level n =
    let sim = Hw.Sim.create c in
    drive ~set:(Hw.Sim.set sim) ~get:(Hw.Sim.get sim)
      ~step:(fun () -> Hw.Sim.step sim)
      c n
  in
  let run_batch n = drive_batch (Hw.Sim.create ~batch:bench_batch c) c n in
  (* Fixed-length checksum pass on fresh instances: all engines (and the
     batched run's lane 0) must fold the identical output stream. *)
  let check_cycles = 2048 in
  let _, ref_sum = run_ref check_cycles in
  let _, level_sum = run_level check_cycles in
  let _, batch_sum = run_batch check_cycles in
  if not (level_sum = ref_sum && batch_sum = ref_sum)
  then failwith (Printf.sprintf "engine checksum mismatch on %s" name);
  let ref_cps = time_cps run_ref in
  let level_cps = time_cps run_level in
  (* Aggregate throughput: each batched step advances [bench_batch] lanes. *)
  let batch_cps = time_cps run_batch *. float_of_int bench_batch in
  {
    er_name = name;
    er_nodes = Hw.Netlist.num_nodes c;
    er_compiled = Hw.Sim.compiled_nodes (Hw.Sim.create c);
    er_ref_cps = ref_cps;
    er_level_cps = level_cps;
    er_batch = bench_batch;
    er_batch_cps = batch_cps;
  }

let sim_engine_rows () =
  let bambu_largest =
    (* The larger of the two Bambu designs by node count. *)
    let ci = stream_circuit (Core.Kernel.initial idct Core.Design.Bambu)
    and co = stream_circuit (Core.Kernel.optimized idct Core.Design.Bambu) in
    if Hw.Netlist.num_nodes ci >= Hw.Netlist.num_nodes co then
      ("bambu_initial", ci)
    else ("bambu_optimized", co)
  in
  let verilog =
    ("verilog_initial", stream_circuit (Core.Kernel.initial idct Core.Design.Verilog))
  in
  List.map (fun (name, c) -> measure_engines name c) [ verilog; bambu_largest ]

let render_engine_rows rows =
  Printf.printf "%-18s %7s %8s %12s %12s %14s %9s\n" "design" "nodes"
    "compiled" "ref cyc/s" "level cyc/s"
    (Printf.sprintf "batch%d lc/s" bench_batch)
    "lvl/ref";
  List.iter
    (fun r ->
      Printf.printf "%-18s %7d %8d %12.0f %12.0f %14.0f %8.2fx\n"
        r.er_name r.er_nodes r.er_compiled r.er_ref_cps r.er_level_cps
        r.er_batch_cps
        (r.er_level_cps /. r.er_ref_cps))
    rows

let write_engine_json path rows =
  (* temp-file + rename: a crash mid-bench never truncates the recorded
     artifact *)
  Core.Trace.write_atomic path (fun oc ->
  output_string oc "{\n  \"bench\": \"sim_engines\",\n  \"designs\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"nodes\": %d, \"compiled_nodes\": %d, \
         \"reference_cps\": %.1f, \"level_cps\": %.1f, \"batch\": %d, \
         \"batch_lane_cps\": %.1f, \"speedup_vs_reference\": %.3f}%s\n"
        r.er_name r.er_nodes r.er_compiled r.er_ref_cps r.er_level_cps
        r.er_batch r.er_batch_cps
        (r.er_level_cps /. r.er_ref_cps)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n");
  Printf.printf "(wrote %s)\n%!" path

let sim_engines () =
  section
    "Simulation engines: levelized batch (Hw.Sim) vs reference interpreter";
  let rows = sim_engine_rows () in
  render_engine_rows rows;
  write_engine_json "BENCH_sim.json" rows

let () =
  sim_engines ();
  section "done"
