(* One cold run of one benchmark workload, in this fresh process: the
   registry's lazy circuits, the Evaluate memo and the Fig1/Table2 caches
   all start empty, as they do when a user runs hlsvhc.

     bench.exe --workload W --seed N --spawn-ns T --tmp DIR
               [--jobs J] [--trace FILE]

   Untraced, the timed part calls the public entry point behind the
   matching hlsvhc subcommand and nothing else.  With --trace, the run
   replays the workload through the public function of every layer, in
   Flow's stage order, recording a span (Spans) around each call, and
   writes the spans to FILE.  Either way the last stdout line is one JSON
   object: timings, the outputs perfbench/run.py checks, and exact
   counts.  [--spawn-ns] is the runner's CLOCK_MONOTONIC reading taken
   just before it spawned this process, so set-up time covers runtime
   and module start-up. *)

(* ---------------- JSON output ---------------- *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec emit buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf (Str k);
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf j;
  Buffer.contents buf

(* ---------------- exact counts ---------------- *)

let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let counts_lock = Mutex.create ()

let count name n =
  Mutex.protect counts_lock (fun () ->
      Hashtbl.replace counts name
        (n + Option.value (Hashtbl.find_opt counts name) ~default:0))

let count_list () =
  Mutex.protect counts_lock (fun () ->
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []))

(* ---------------- the replay, layer by layer ---------------- *)

let front_end (d : Core.Design.t) =
  match d.Core.Design.tool with
  | Core.Design.Verilog -> "vlog"
  | Chisel -> "chisel"
  | Bsv -> "bsv"
  | Dslx -> "dslx"
  | Maxj -> "maxj"
  | Bambu | Vivado_hls -> "chls"

let elaborate d lz =
  Spans.with_ (front_end d ^ ".elab") (fun () -> Core.Design.force lz)

(* A simulator call, split at its hook events: each [sim_thunks] event
   ends an engine compile ("hw.sim_compile", from the call or the
   previous run's [cycles] event) and starts a stream run
   ("axis.stream_run", up to that run's [cycles] event, or the return of
   the call for the last run). *)
let sim_call name f =
  Spans.with_id name (fun id ->
      let events = ref [] in
      let hook ev v =
        match ev with
        | "sim_thunks" ->
            count "hw.sim_thunks" v;
            events := `Thunks (Spans.now ()) :: !events
        | "cycles" ->
            count "hw.sim_cycles" v;
            events := `Cycles (Spans.now ()) :: !events
        | _ -> ()
      in
      let t0 = Spans.now () in
      let r = f hook in
      let t1 = Spans.now () in
      let rec split start = function
        | `Thunks t :: rest -> (
            Spans.record ~name:"hw.sim_compile" ~parent:id start t;
            match rest with
            | `Cycles c :: (_ :: _ as rest) ->
                Spans.record ~name:"axis.stream_run" ~parent:id t c;
                split c rest
            | _ -> Spans.record ~name:"axis.stream_run" ~parent:id t t1)
        | _ -> ()
      in
      split t0 (List.rev !events);
      r)

let synthesize c =
  Spans.with_ "hw.synth" (fun () ->
      Hw.Synth.run ~hook:(fun ev v -> if ev = "area" then count "hw.area" v) c)

let check_bit_true what got expected =
  if not (List.equal Axis.Block.equal got expected) then
    failwith (what ^ ": outputs differ from the kernel reference")

(* Flow.measure_uncached, step by step: Design.force, Netlist.validate,
   the testbench (or the MaxJ manager), the check against
   [spec.reference], Synth.run, then the same metrics record. *)
let replay_point ~(spec : Core.Flow.spec) ~matrices (d : Core.Design.t) =
  Spans.with_ "core.measure" (fun () ->
      match d.Core.Design.impl with
      | Core.Design.Stream lz ->
          let c = elaborate d lz in
          count "hw.netlist_nodes" (Hw.Netlist.num_nodes c);
          Spans.with_ "hw.validate" (fun () -> Hw.Netlist.validate c);
          let mats =
            Spans.with_ "idct.stimulus" (fun () -> spec.stimulus matrices)
          in
          let r =
            sim_call "axis.driver" (fun hook ->
                Axis.Driver.run ?timeout:spec.sim_timeout ~hook c mats)
          in
          Spans.with_ "idct.verify" (fun () ->
              check_bit_true (Core.Flow.span_key d) r.Axis.Driver.outputs
                (List.map spec.reference mats);
              if r.Axis.Driver.violations <> [] then
                failwith (Core.Flow.span_key d ^ ": AXI-Stream violation"));
          let rep = synthesize c in
          {
            Core.Metrics.fmax_mhz = rep.Hw.Synth.fmax_mhz;
            throughput_mops =
              rep.Hw.Synth.fmax_mhz /. float_of_int r.Axis.Driver.periodicity;
            latency = r.Axis.Driver.latency;
            periodicity = r.Axis.Driver.periodicity;
            area = rep.Hw.Synth.area;
            luts_nodsp = rep.Hw.Synth.luts_nodsp;
            ffs_nodsp = rep.Hw.Synth.ffs_nodsp;
            luts = rep.Hw.Synth.luts;
            ffs = rep.Hw.Synth.ffs;
            dsps = rep.Hw.Synth.dsps;
            ios = rep.Hw.Synth.ios;
          }
      | Core.Design.Pcie p ->
          let s = elaborate d p.Core.Design.system in
          let k = s.Maxj.Manager.kernel in
          count "hw.netlist_nodes" (Hw.Netlist.num_nodes k);
          Spans.with_ "hw.validate" (fun () -> Hw.Netlist.validate k);
          let r =
            Spans.with_ "maxj.manager" (fun () -> Maxj.Manager.evaluate s)
          in
          let mats =
            Spans.with_ "idct.stimulus" (fun () -> spec.stimulus matrices)
          in
          let got =
            Spans.with_ "maxj.simulate" (fun () -> p.Core.Design.simulate mats)
          in
          Spans.with_ "idct.verify" (fun () ->
              check_bit_true (Core.Flow.span_key d) got
                (List.map spec.reference mats));
          let rep = synthesize k in
          {
            Core.Metrics.fmax_mhz = r.Maxj.Manager.fmax_mhz;
            throughput_mops = r.Maxj.Manager.throughput_mops;
            latency = r.Maxj.Manager.latency_ticks;
            periodicity = s.Maxj.Manager.ticks_per_op;
            area = rep.Hw.Synth.area;
            luts_nodsp = rep.Hw.Synth.luts_nodsp;
            ffs_nodsp = rep.Hw.Synth.ffs_nodsp;
            luts = rep.Hw.Synth.luts;
            ffs = rep.Hw.Synth.ffs;
            dsps = rep.Hw.Synth.dsps;
            ios = Maxj.Manager.pcie_pins;
          })

(* Evaluate.check_compliance, step by step. *)
let replay_compliance ~(spec : Core.Flow.spec) ~blocks (d : Core.Design.t) =
  Spans.with_ "core.comply.design" (fun () ->
      match d.Core.Design.impl with
      | Core.Design.Stream lz ->
          let c = elaborate d lz in
          count "hw.netlist_nodes" (Hw.Netlist.num_nodes c);
          let dut blks =
            count "idct.blocks" (List.length blks);
            sim_call "axis.transform_batch" (fun hook ->
                Axis.Driver.transform_batch ~hook c blks)
          in
          Spans.with_ "idct.ieee1180" (fun () -> spec.comply ~blocks dut)
      | Core.Design.Pcie p ->
          let mats =
            Spans.with_ "idct.stimulus" (fun () -> spec.stimulus blocks)
          in
          count "idct.blocks" (List.length mats);
          let got =
            Spans.with_ "maxj.simulate" (fun () -> p.Core.Design.simulate mats)
          in
          Spans.with_ "idct.verify" (fun () ->
              List.for_all2 Axis.Block.equal got (List.map spec.reference mats)))

(* Transformation steps run inside a derived design's Design.force; the
   engine's injected tracer is the public way to see them. *)
let install_transfo_tracer () =
  Transfo.Engine.set_tracer
    {
      Transfo.Engine.wrap =
        (fun ~design:_ ~stage f ->
          if stage = "transfo:verify" then Spans.with_ "transfo.verify" f
          else begin
            count "transfo.steps" 1;
            Spans.with_ "transfo.apply" f
          end);
      counter = (fun _ _ -> ());
    }

(* A store backend that answers every memo miss by replaying the
   pipeline (write-through to [store] when given, as Evaluate does), so
   the library's own search and sweep code drive the replay in their own
   order and on their own pool.  Replayed points are kept for the replay
   check. *)
let replaying = Mutex.create ()
let replayed : (string * Core.Design.t * Core.Metrics.measured) list ref = ref []

let replay_backend ~spec ~matrices ~designs ?store () =
  let find key =
    match Hashtbl.find_opt designs key with
    | None -> failwith ("replay: no design for key " ^ key)
    | Some d ->
        let m = replay_point ~spec ~matrices d in
        Mutex.protect replaying (fun () ->
            replayed := (key, d, m) :: !replayed);
        m
  in
  let sb_find key =
    match store with
    | None -> Some (find key)
    | Some st -> (
        match Spans.with_ "store.find" (fun () -> Store.find st ~key) with
        | Some m -> Some m
        | None ->
            let m = find key in
            Spans.with_ "store.add" (fun () -> Store.add st ~key m);
            Some m)
  in
  {
    Core.Evaluate.sb_name = "perfbench-replay";
    sb_find;
    sb_add = (fun key _ -> failwith ("replay: unexpected write of " ^ key));
  }

(* Every replayed point must equal what Evaluate.measure computes. *)
let replay_check ~spec ~matrices =
  Core.Evaluate.set_store_backend None;
  Core.Evaluate.clear_measure_cache ();
  List.filter_map
    (fun (key, d, m) ->
      if Core.Evaluate.measure ~matrices ~spec d = m then None
      else Some ("replayed metrics differ from Evaluate.measure: " ^ key))
    (List.rev !replayed)

let memo_probe ~spec ~matrices designs =
  List.iter
    (fun d ->
      count "core.memo.probes" 1;
      if Core.Evaluate.is_cached ~matrices ~spec d then
        count "core.memo.hits" 1)
    designs

(* ---------------- workloads ---------------- *)

type outcome = {
  outputs : (string * json) list;  (** checked against expected.json *)
  problems : string list;  (** in-run checks that failed *)
}

type workload = {
  items : int;  (** items of work one run attempts *)
  timed : unit -> unit -> outcome;
      (** the timed part; the closure it returns finishes the outcome
          outside the timed interval *)
}

let md5 s = Digest.to_hex (Digest.string s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fig1_cold ~jobs ~kernel ~traced ~tmp =
  let spec = Core.Kernel.spec kernel and matrices = 3 in
  let all = Core.Kernel.all_designs kernel in
  let designs = Hashtbl.create 128 in
  List.iter
    (fun d -> Hashtbl.replace designs (Core.Evaluate.measure_key ~matrices ~spec d) d)
    all;
  let compute () =
    let series = Core.Fig1.compute ~jobs ~kernel () in
    (series, Core.Fig1.render_series ~kernel series)
  in
  let timed () =
    let series, text =
      if not traced then compute ()
      else begin
        memo_probe ~spec ~matrices all;
        Core.Evaluate.set_store_backend
          (Some (replay_backend ~spec ~matrices ~designs ()));
        Spans.with_id "core.fig1" (fun id ->
            Spans.set_pool_parent id;
            compute ())
      end
    in
    fun () ->
      let json = Filename.concat tmp "fig1.json" in
      Core.Fig1.write_json ~kernel json series;
      let points = List.concat_map (fun s -> s.Core.Fig1.points) series in
      if not traced then
        count "hw.area"
          (List.fold_left (fun a p -> a + p.Core.Fig1.area) 0 points);
      count "fig1.points" (List.length points);
      {
        outputs =
          [ ("text_md5", Str (md5 text)); ("json_md5", Str (md5 (read_file json))) ];
        problems = (if traced then replay_check ~spec ~matrices else []);
      }
  in
  { items = List.length all; timed }

let comply ~jobs ~kernel ~traced ~blocks =
  let spec = Core.Kernel.spec kernel in
  let designs =
    List.map (Core.Kernel.optimized kernel) (Core.Kernel.tools kernel)
  in
  let timed () =
    let verdicts =
      if not traced then Core.Evaluate.compliance_all ~jobs ~blocks ~spec designs
      else begin
        memo_probe ~spec ~matrices:4 designs;
        Spans.with_id "core.comply" (fun id ->
            Spans.set_pool_parent id;
            Core.Parallel.map ~jobs
              (fun d -> (d, replay_compliance ~spec ~blocks d))
              designs)
      end
    in
    fun () ->
      let line ((d : Core.Design.t), ok) =
        Str
          (Printf.sprintf "%-12s optimized: %s"
             (Core.Design.tool_name d.Core.Design.tool)
             (if ok then "IEEE 1180-1990 PASS" else "FAIL"))
      in
      count "comply.designs" (List.length verdicts);
      {
        outputs = [ ("lines", List (List.map line verdicts)) ];
        problems = [];
      }
  in
  { items = 6 * blocks * List.length designs; timed }

let dse_tools =
  Core.Design.[ Verilog; Chisel; Dslx; Maxj; Vivado_hls ]

let entry_bytes dir =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".entry" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let dse_transfo ~jobs ~kernel ~traced ~seed ~tmp =
  let spec = Core.Kernel.spec kernel and matrices = 3 in
  let spaces =
    List.map
      (fun t -> Dse.Space.with_scripts (Dse.Space.of_tool ~kernel t))
      dse_tools
  in
  let candidates = List.concat_map Dse.Space.candidates spaces in
  let designs = Hashtbl.create 64 in
  List.iter
    (fun (c : Dse.Space.candidate) ->
      let d = c.Dse.Space.cand_design in
      Hashtbl.replace designs (Core.Evaluate.measure_key ~matrices ~spec d) d)
    candidates;
  let dir = Filename.concat tmp "store" in
  let store =
    match
      if traced then Store.open_store dir else Store.attach dir
    with
    | Ok st -> st
    | Error e -> failwith ("store: " ^ e)
  in
  if traced then
    Core.Evaluate.set_store_backend
      (Some (replay_backend ~spec ~matrices ~designs ~store ()));
  let search ?budget strategy =
    let run () =
      Dse.Engine.run ~jobs ?budget ~seed ~strategy
        ~objective:Dse.Engine.Quality spaces
    in
    if not traced then run ()
    else begin
      memo_probe ~spec ~matrices
        (List.map (fun c -> c.Dse.Space.cand_design) candidates);
      Spans.with_id "dse.search" (fun id ->
          Spans.set_pool_parent id;
          run ())
    end
  in
  let timed () =
    let hc = search ~budget:20 Dse.Strategy.Hillclimb in
    let ex = search Dse.Strategy.Exhaustive in
    fun () ->
      let key (ev : Dse.Engine.evaluated) = Dse.Space.key ev.Dse.Engine.ev_candidate in
      let oks =
        List.filter_map
          (fun (ev : Dse.Engine.evaluated) ->
            match ev.Dse.Engine.ev_outcome with
            | Ok m -> Some (ev, m)
            | Error _ -> None)
          ex.Dse.Engine.res_evaluated
      in
      let cloud =
        List.map (fun (ev, m) -> Dse.Engine.point_of ev.Dse.Engine.ev_candidate m) oks
      in
      let pt (p : Dse.Pareto.point) =
        Printf.sprintf "%s A=%d P=%h" p.Dse.Pareto.pt_key p.Dse.Pareto.pt_area
          p.Dse.Pareto.pt_perf
      in
      let hc_mismatch =
        List.filter_map
          (fun (ev : Dse.Engine.evaluated) ->
            match
              List.find_opt
                (fun e -> key e = key ev)
                ex.Dse.Engine.res_evaluated
            with
            | Some e when e.Dse.Engine.ev_outcome = ev.Dse.Engine.ev_outcome ->
                None
            | _ -> Some ("hillclimb point differs from exhaustive: " ^ key ev))
          hc.Dse.Engine.res_evaluated
      in
      let st = Store.stats store in
      let fsck =
        match Store.fsck dir with
        | Ok r -> Obj [ ("valid", Int r.Store.fk_valid); ("total", Int r.Store.fk_total) ]
        | Error e -> Str e
      in
      let stats = [ hc.Dse.Engine.res_stats; ex.Dse.Engine.res_stats ] in
      let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
      count "dse.evaluated" (sum (fun s -> s.Dse.Engine.st_evaluated));
      count "dse.cache_hits" (sum (fun s -> s.Dse.Engine.st_cache_hits));
      count "dse.frontier" ex.Dse.Engine.res_stats.Dse.Engine.st_frontier;
      count "store.writes" st.Store.st_writes;
      count "store.hits" st.Store.st_hits;
      count "store.misses" st.Store.st_misses;
      count "store.bytes" (entry_bytes dir);
      if not traced then
        count "hw.area"
          (List.fold_left (fun a (_, m) -> a + m.Core.Metrics.area) 0 oks);
      {
        outputs =
          [
            ("frontier", List (List.map (fun p -> Str (pt p)) ex.Dse.Engine.res_frontier));
            ("hypervolume", Float (Dse.Pareto.hypervolume cloud));
            ("points_md5", Str (md5 (String.concat "\n" (List.map pt cloud))));
            ("store_entries", Int (Store.entry_count store));
            ("fsck", fsck);
          ];
        problems =
          hc_mismatch @ (if traced then replay_check ~spec ~matrices else []);
      }
  in
  { items = Hashtbl.length designs; timed }

(* ---------------- main ---------------- *)

let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | Some _ -> go ()
      in
      go ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let () =
  let workload = ref "" and seed = ref 0 and jobs = ref 0 in
  let spawn_ns = ref "" and tmp = ref "" and trace = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fig1_cold | comply | dse_transfo");
      ("--seed", Arg.Set_int seed, "N input seed (used by dse_transfo)");
      ("--jobs", Arg.Set_int jobs, "N pool size (default: the hlsvhc default)");
      ("--spawn-ns", Arg.Set_string spawn_ns, "NS monotonic time of the spawn");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for this run");
      ("--trace", Arg.Set_string trace, "FILE replay with spans, write them to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --spawn-ns NS --tmp DIR [--jobs N] [--trace FILE]";
  let spawn_ns = Int64.of_string !spawn_ns in
  let traced = !trace <> "" in
  let jobs = if !jobs > 0 then !jobs else Core.Parallel.default_jobs () in
  let kernel =
    match Core.Kernel.parse_kernel "idct" with
    | Some k -> k
    | None -> failwith "the idct kernel is not registered"
  in
  if traced then install_transfo_tracer ();
  let w =
    match !workload with
    | "fig1_cold" -> fig1_cold ~jobs ~kernel ~traced ~tmp:!tmp
    | "comply" -> comply ~jobs ~kernel ~traced ~blocks:500
    | "dse_transfo" -> dse_transfo ~jobs ~kernel ~traced ~seed:!seed ~tmp:!tmp
    | w ->
        prerr_endline ("bench.exe: unknown workload " ^ w);
        exit 2
  in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_s () in
  let t_first = Spans.now () in
  let result =
    try Ok (if traced then Spans.with_ "bench.run" w.timed else w.timed ())
    with e -> Error (Printexc.to_string e)
  in
  let t_end = Spans.now () in
  let cpu1 = cpu_s () in
  let gc1 = Gc.quick_stat () in
  let outcome =
    match result with
    | Ok finish -> (
        try finish ()
        with e -> { outputs = []; problems = [ Printexc.to_string e ] })
    | Error e -> { outputs = []; problems = [ e ] }
  in
  let failed = match result with Ok _ -> 0 | Error _ -> w.items in
  let seconds ns = Int64.to_float ns /. 1e9 in
  if traced then
    Out_channel.with_open_bin !trace (fun oc ->
        output_string oc
          (to_string
             (Obj
                [
                  ("run_id", Str (Printf.sprintf "%s-j%d-%d" !workload jobs (Unix.getpid ())));
                  ("jobs", Int jobs);
                  ( "spans",
                    List
                      (List.map
                         (fun (s : Spans.t) ->
                           List
                             [
                               Int s.Spans.id; Str s.Spans.name;
                               Str (Int64.to_string s.Spans.t0);
                               Str (Int64.to_string s.Spans.t1);
                               Int s.Spans.parent;
                             ])
                         (Spans.all ())) );
                ])));
  print_endline
    (to_string
       (Obj
          [
            ("workload", Str !workload);
            ("seed", Int !seed);
            ("jobs", Int jobs);
            ("traced", Bool traced);
            ("setup_s", Float (seconds (Int64.sub t_first spawn_ns)));
            ("wall_s", Float (seconds (Int64.sub t_end t_first)));
            ("cpu_s", Float (cpu1 -. cpu0));
            ("peak_rss_mb", Float (float_of_int (vm_hwm_kb ()) /. 1024.));
            ( "alloc_mb",
              Float
                ((gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
                 -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words))
                *. float_of_int (Sys.word_size / 8) /. 1e6) );
            ("major_gcs", Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("items", Int w.items);
            ("failed", Int failed);
            ("outputs", Obj outcome.outputs);
            ("problems", List (List.map (fun p -> Str p) outcome.problems));
            ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) (count_list ())));
          ]))
