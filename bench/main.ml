(* Benchmark harness for what no golden artifact measures: simulation
   engine throughput (BENCH_sim.json), DSE strategy throughput
   (BENCH_dse.json), per-kernel cold/warm evaluation (BENCH_kernels.json),
   verified transformation scripts (BENCH_transfo.json) and the serve
   daemon (BENCH_serve.json).  The paper's tables, figure and Section IV
   ablations are [hlsvhc] subcommands pinned by test/golden.  Run with
   [dune exec bench/main.exe]. *)

let idct = Core.Kernel.idct

let line = String.make 78 '='

let section title =
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Simulation engines: levelized batch (Hw.Compile, behind Hw.Sim) vs   *)
(* the reference interpreter                                            *)
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
          Hw.Sim.set_lane sim ~lane nm (stimulus ~lane_salt:(lane * 0x5b) k i))
        ins
    done;
    List.iter (fun nm -> sum := !sum lxor Hw.Sim.get_lane sim ~lane:0 nm) outs;
    Hw.Sim.batch_step sim
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
  let run_batch n = drive_batch (Hw.Sim.create_batch ~batch:bench_batch c) c n in
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
    er_compiled = Hw.Compile.compiled_nodes (Hw.Compile.create c);
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

(* ------------------------------------------------------------------ *)
(* Design-space exploration: strategy throughput over the full space    *)
(* ------------------------------------------------------------------ *)

type dse_row = {
  dr_strategy : string;
  dr_seed : int;
  dr_budget : int option;
  dr_evaluated : int;
  dr_seconds : float;
  dr_cache_hits : int;
  dr_frontier : int;
}

let dse_rows () =
  let spaces = List.map Dse.Space.of_tool Core.Design.all_tools in
  let timed strategy ?budget ~seed () =
    let t0 = Unix.gettimeofday () in
    let r =
      Dse.Engine.run ?budget ~seed ~strategy ~objective:Dse.Engine.Quality
        spaces
    in
    let dt = Unix.gettimeofday () -. t0 in
    {
      dr_strategy = Dse.Strategy.to_string strategy;
      dr_seed = seed;
      dr_budget = budget;
      dr_evaluated = r.Dse.Engine.res_stats.Dse.Engine.st_evaluated;
      dr_seconds = dt;
      dr_cache_hits = r.Dse.Engine.res_stats.Dse.Engine.st_cache_hits;
      dr_frontier = r.Dse.Engine.res_stats.Dse.Engine.st_frontier;
    }
  in
  (* Exhaustive runs cold — it measures real evaluation throughput over
     all 100 candidates.  The budgeted strategies then run warm, so their
     cache-hit rate shows how much of a search revisits known ground. *)
  Core.Evaluate.clear_measure_cache ();
  (* explicit lets: a list literal would evaluate right-to-left and run
     the budgeted strategies before the cold exhaustive pass *)
  let exhaustive = timed Dse.Strategy.Exhaustive ~seed:0 () in
  let random = timed Dse.Strategy.Random ~budget:40 ~seed:42 () in
  let hillclimb = timed Dse.Strategy.Hillclimb ~budget:40 ~seed:42 () in
  [ exhaustive; random; hillclimb ]

let render_dse_rows rows =
  Printf.printf "%-12s %6s %8s %10s %10s %12s %10s %10s\n" "strategy" "seed"
    "budget" "evaluated" "seconds" "cands/sec" "cache-hit" "frontier";
  List.iter
    (fun r ->
      Printf.printf "%-12s %6d %8s %10d %10.3f %12.1f %9.0f%% %10d\n"
        r.dr_strategy r.dr_seed
        (match r.dr_budget with Some b -> string_of_int b | None -> "none")
        r.dr_evaluated r.dr_seconds
        (float_of_int r.dr_evaluated /. Float.max 1e-9 r.dr_seconds)
        (100.
        *. float_of_int r.dr_cache_hits
        /. float_of_int (max 1 r.dr_evaluated))
        r.dr_frontier)
    rows

let write_dse_json path rows =
  Core.Trace.write_atomic path (fun oc ->
      output_string oc "{\n  \"bench\": \"dse\",\n  \"strategies\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"strategy\": \"%s\", \"seed\": %d, \"budget\": %s, \
             \"evaluated\": %d, \"seconds\": %.3f, \"candidates_per_sec\": \
             %.1f, \"cache_hits\": %d, \"cache_hit_rate\": %.3f, \
             \"frontier_size\": %d}%s\n"
            r.dr_strategy r.dr_seed
            (match r.dr_budget with
            | Some b -> string_of_int b
            | None -> "null")
            r.dr_evaluated r.dr_seconds
            (float_of_int r.dr_evaluated /. Float.max 1e-9 r.dr_seconds)
            r.dr_cache_hits
            (float_of_int r.dr_cache_hits
            /. float_of_int (max 1 r.dr_evaluated))
            r.dr_frontier
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "  ]\n}\n");
  Printf.printf "(wrote %s)\n%!" path

let dse_bench () =
  section "Design-space exploration: strategy throughput (full 100-point space)";
  let rows = dse_rows () in
  render_dse_rows rows;
  write_dse_json "BENCH_dse.json" rows

(* ------------------------------------------------------------------ *)
(* Kernel registry: per-kernel evaluation throughput, cold vs warm      *)
(* ------------------------------------------------------------------ *)

type kernel_row = {
  kr_kernel : string;
  kr_designs : int;
  kr_cold_s : float;
  kr_warm_s : float;
  kr_cycles : int;
  kr_cps : float;  (* simulated cycles per wall second, cold *)
}

(* Each registered kernel's initial+optimized inventory, measured cold
   (fresh memo) then warm (pure memo reads).  The cycle count is the
   simulated stream length (latency + 2 further matrices at the design's
   periodicity), so cycles/sec compares kernels of very different
   design sizes on one scale. *)
let kernel_rows () =
  List.map
    (fun k ->
      let spec = Core.Kernel.spec k in
      let designs =
        List.sort_uniq
          (fun a b -> compare (Core.Flow.span_key a) (Core.Flow.span_key b))
          (List.concat_map
             (fun tool ->
               [ Core.Kernel.initial k tool; Core.Kernel.optimized k tool ])
             (Core.Kernel.tools k))
      in
      Core.Evaluate.clear_measure_cache ();
      let t0 = Unix.gettimeofday () in
      let ms = List.map (Core.Evaluate.measure ~matrices:3 ~spec) designs in
      let cold = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      let _ = List.map (Core.Evaluate.measure ~matrices:3 ~spec) designs in
      let warm = Unix.gettimeofday () -. t1 in
      let cycles =
        List.fold_left
          (fun acc (m : Core.Metrics.measured) ->
            acc + m.Core.Metrics.latency + (2 * m.Core.Metrics.periodicity))
          0 ms
      in
      {
        kr_kernel = Core.Kernel.name k;
        kr_designs = List.length designs;
        kr_cold_s = cold;
        kr_warm_s = warm;
        kr_cycles = cycles;
        kr_cps = float_of_int cycles /. Float.max 1e-9 cold;
      })
    Core.Kernel.all

let render_kernel_rows rows =
  Printf.printf "%-10s %8s %10s %10s %10s %12s %12s\n" "kernel" "designs"
    "cold s" "warm s" "speedup" "sim cycles" "cycles/sec";
  List.iter
    (fun r ->
      Printf.printf "%-10s %8d %10.3f %10.4f %9.0fx %12d %12.0f\n"
        r.kr_kernel r.kr_designs r.kr_cold_s r.kr_warm_s
        (r.kr_cold_s /. Float.max 1e-9 r.kr_warm_s)
        r.kr_cycles r.kr_cps)
    rows

let write_kernels_json path rows =
  Core.Trace.write_atomic path (fun oc ->
      output_string oc "{\n  \"bench\": \"kernels\",\n  \"kernels\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"kernel\": \"%s\", \"designs\": %d, \"cold_seconds\": \
             %.3f, \"warm_seconds\": %.4f, \"sim_cycles\": %d, \
             \"cycles_per_sec\": %.0f}%s\n"
            r.kr_kernel r.kr_designs r.kr_cold_s r.kr_warm_s r.kr_cycles
            r.kr_cps
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "  ]\n}\n");
  Printf.printf "(wrote %s)\n%!" path

let kernels_bench () =
  section "Kernel registry: per-kernel evaluation throughput (cold vs warm)";
  let rows = kernel_rows () in
  render_kernel_rows rows;
  write_kernels_json "BENCH_kernels.json" rows

(* ------------------------------------------------------------------ *)
(* Transformation scripts: apply+verify throughput, retiming payoff     *)
(* ------------------------------------------------------------------ *)

(* Two sides of lib/transfo worth tracking: how fast a verified script
   runs (every step discharges its obligation AND crosschecks the result
   against the reference interpreter, so this is really a verification
   benchmark),
   and what the flagship delayed transformation buys — the fmax of the
   IDCT row datapath before and after [retime 4] under the xcvu9p delay
   model. *)
let transfo_bench () =
  section "Transformation scripts: verified apply throughput, retime payoff";
  let subject () =
    Transfo.Subject.of_circuit
      (Chisel.Idct_gen.row_comb Chisel.Idct_gen.Inferred ~name:"bench_row")
  in
  let script = Transfo.Script.parse_exn "strength_reduce; narrow" in
  let runs = 5 in
  let t0 = Unix.gettimeofday () in
  let steps = ref 0 in
  for _ = 1 to runs do
    match Transfo.Engine.run script (subject ()) with
    | Ok r -> steps := !steps + List.length r.Transfo.Engine.rep_steps
    | Error e -> failwith (Transfo.Engine.error_to_string e)
  done;
  let apply_s = Unix.gettimeofday () -. t0 in
  let steps_per_sec = float_of_int !steps /. Float.max 1e-9 apply_s in
  let before = (subject ()).Transfo.Subject.circuit in
  let after =
    match
      Transfo.Engine.run (Transfo.Script.parse_exn "retime 4") (subject ())
    with
    | Ok r -> r.Transfo.Engine.rep_subject.Transfo.Subject.circuit
    | Error e -> failwith (Transfo.Engine.error_to_string e)
  in
  let tb = Hw.Timing.analyze Hw.Device.xcvu9p before in
  let ta = Hw.Timing.analyze Hw.Device.xcvu9p after in
  let speedup = ta.Hw.Timing.fmax_mhz /. tb.Hw.Timing.fmax_mhz in
  Printf.printf
    "verified script %S: %d steps in %.3fs (%.1f steps/s, \
     crosscheck included)\n"
    (Transfo.Script.to_string script)
    !steps apply_s steps_per_sec;
  Printf.printf
    "retime 4 on the row datapath: fmax %.1f -> %.1f MHz (%.2fx)\n"
    tb.Hw.Timing.fmax_mhz ta.Hw.Timing.fmax_mhz speedup;
  Core.Trace.write_atomic "BENCH_transfo.json" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"transfo\",\n\
        \  \"script\": \"%s\",\n\
        \  \"runs\": %d,\n\
        \  \"verified_steps\": %d,\n\
        \  \"seconds\": %.3f,\n\
        \  \"steps_per_sec\": %.1f,\n\
        \  \"retime\": {\"stages\": 4, \"fmax_before_mhz\": %.1f, \
         \"fmax_after_mhz\": %.1f, \"speedup\": %.3f}\n\
         }\n"
        (Transfo.Script.to_string script)
        runs !steps apply_s steps_per_sec tb.Hw.Timing.fmax_mhz
        ta.Hw.Timing.fmax_mhz speedup);
  Printf.printf "(wrote BENCH_transfo.json)\n%!"

(* ------------------------------------------------------------------ *)
(* Serve daemon: request throughput, cold store vs warm store           *)
(* ------------------------------------------------------------------ *)

(* One in-process daemon over a fresh store.  The cold pass computes and
   publishes every result; the warm passes clear the in-process memo
   before each batch, so every answer is served from the validated disk
   store — the restart-survival path a fresh client actually takes.
   Warm batches are timed individually for p50/p99, and one wedged
   client (connects, sends nothing) exercises the idle-deadline path so
   the hardening counters in BENCH_serve.json are non-trivial. *)

(* Nearest-rank percentile of an unsorted sample, in place. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let serve_bench () =
  section "Serve daemon: batch throughput, cold store vs warm store";
  let tmp = Filename.get_temp_dir_name () in
  let socket =
    Filename.concat tmp (Printf.sprintf "hlsvhc_bench_%d.sock" (Unix.getpid ()))
  in
  let store_dir =
    Filename.concat tmp (Printf.sprintf "hlsvhc_bench_store_%d" (Unix.getpid ()))
  in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat store_dir f) with Sys_error _ -> ())
    (if Sys.file_exists store_dir then Sys.readdir store_dir else [||]);
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let store = Result.get_ok (Store.attach store_dir) in
  let conn_timeout = 0.5 in
  let cfg =
    {
      (Serve.default_config ~socket_path:socket) with
      jobs = Some 2;
      store = Some store;
      conn_workers = 2;
      conn_timeout;
    }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  let batch =
    List.map
      (fun label -> Serve.Client.eval_line ~tool:"verilog" ~label ~matrices:2 ())
      [ "initial"; "1 row + 8 col units"; "optimized" ]
  in
  let joined = ref None in
  let join_server () =
    match !joined with
    | Some c -> c
    | None ->
        (try ignore (Serve.Client.request ~socket [ "shutdown" ]) with _ -> ());
        let c = Domain.join server in
        joined := Some c;
        c
  in
  let finish () =
    ignore (join_server ());
    Store.detach ();
    Core.Evaluate.clear_measure_cache ()
  in
  Fun.protect ~finally:finish (fun () ->
      Serve.Client.wait_ready ~socket ();
      let timed_batch () =
        let t0 = Unix.gettimeofday () in
        Core.Evaluate.clear_measure_cache ();
        let rs = Serve.Client.request ~socket batch in
        List.iter
          (fun r ->
            match Serve.Client.parse_metrics r with
            | Ok _ -> ()
            | Error e -> failwith ("serve bench: bad response: " ^ e))
          rs;
        Unix.gettimeofday () -. t0
      in
      let cold_s = timed_batch () in
      let s_cold = Store.stats store in
      let warm_batches = 10 in
      let warm_lat = List.init warm_batches (fun _ -> timed_batch ()) in
      let warm_s = List.fold_left ( +. ) 0. warm_lat in
      let s_all = Store.stats store in
      (* one wedged client: connect, send nothing, let the idle deadline
         close it — the daemon must count a timeout, not hang *)
      let wedged = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect wedged (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float wedged Unix.SO_RCVTIMEO (10. *. conn_timeout);
      (try
         while Unix.read wedged (Bytes.create 64) 0 64 > 0 do
           ()
         done
       with Unix.Unix_error _ -> ());
      (try Unix.close wedged with Unix.Unix_error _ -> ());
      let counters = join_server () in
      let reqs = List.length batch in
      let cold_rps = float_of_int reqs /. Float.max cold_s 1e-9 in
      let warm_reqs = reqs * warm_batches in
      let warm_rps = float_of_int warm_reqs /. Float.max warm_s 1e-9 in
      let warm_hits = s_all.Store.st_hits - s_cold.Store.st_hits in
      let warm_hit_rate = float_of_int warm_hits /. float_of_int warm_reqs in
      let p50 = 1000. *. percentile 50. warm_lat in
      let p99 = 1000. *. percentile 99. warm_lat in
      let timeouts = Atomic.get counters.Serve.conn_timeouts in
      let shed = Atomic.get counters.Serve.shed in
      let drops = Atomic.get counters.Serve.drops in
      Printf.printf
        "cold: %d requests in %.3fs (%.1f req/s, %d store misses, %d writes)\n"
        reqs cold_s cold_rps s_cold.Store.st_misses s_cold.Store.st_writes;
      Printf.printf
        "warm: %d requests in %.3fs (%.1f req/s, store hit rate %.2f) -> %.1fx\n"
        warm_reqs warm_s warm_rps warm_hit_rate (warm_rps /. cold_rps);
      Printf.printf
        "warm batch latency: p50 %.2f ms, p99 %.2f ms; hardening: \
         %d timeout(s), %d shed, %d drop(s)\n"
        p50 p99 timeouts shed drops;
      Core.Trace.write_atomic "BENCH_serve.json" (fun oc ->
          Printf.fprintf oc
            "{\n\
            \  \"bench\": \"serve\",\n\
            \  \"batch_size\": %d,\n\
            \  \"cold\": {\"requests\": %d, \"seconds\": %.3f, \
             \"requests_per_sec\": %.1f, \"store_misses\": %d, \
             \"store_writes\": %d},\n\
            \  \"warm\": {\"requests\": %d, \"seconds\": %.3f, \
             \"requests_per_sec\": %.1f, \"store_hits\": %d, \
             \"store_hit_rate\": %.3f},\n\
            \  \"warm_speedup\": %.3f,\n\
            \  \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f},\n\
            \  \"hardening\": {\"conn_timeouts\": %d, \"shed\": %d, \
             \"drops\": %d}\n\
             }\n"
            reqs reqs cold_s cold_rps s_cold.Store.st_misses
            s_cold.Store.st_writes warm_reqs warm_s warm_rps warm_hits
            warm_hit_rate (warm_rps /. cold_rps) p50 p99 timeouts shed drops);
      Printf.printf "(wrote BENCH_serve.json)\n%!")

let () =
  sim_engines ();
  dse_bench ();
  kernels_bench ();
  transfo_bench ();
  serve_bench ();
  section "done"
