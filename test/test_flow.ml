(* The staged flow layer: artifacts are byte-identical with tracing on or
   off and for any job count, spans nest without overlapping, cache
   counters track the measurement cache, the JSON round-trips, and
   compliance dispatches on the design under test. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* A cheap two-tool slice of Fig. 1 (6 designs) for the determinism
   tests. *)
let tools = [ Core.Design.Verilog; Core.Design.Chisel ]

let cold () = Core.Evaluate.clear_measure_cache ()

let render ~jobs () =
  Core.Fig1.render_series (Core.Fig1.compute ~jobs ~tools ())

(* Run [f] with tracing enabled; return its result and the drained
   spans.  The flag is always restored. *)
let traced f =
  Core.Trace.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Core.Trace.set_enabled false) f
  in
  (r, Core.Trace.drain ())

(* Write [spans] as a trace file and hand its path to [k]. *)
let with_trace_file spans k =
  let file = Filename.temp_file "hlsvhc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Core.Trace.write_json file spans;
      k file)

let test_artifacts_identical_traced () =
  cold ();
  let plain = render ~jobs:1 () in
  cold ();
  let with_trace, spans = traced (render ~jobs:1) in
  check Alcotest.string "fig1 byte-identical under tracing" plain with_trace;
  check bool "trace not empty" true (spans <> []);
  (* one complete stage pipeline per measured design *)
  let stage_spans name =
    List.length (List.filter (fun s -> s.Core.Trace.stage = name) spans)
  in
  List.iter
    (fun name -> check int ("6 designs ran " ^ name) 6 (stage_spans name))
    Core.Flow.stage_names

let test_artifacts_identical_across_jobs () =
  cold ();
  let seq = render ~jobs:1 () in
  cold ();
  let par, spans = traced (render ~jobs:4) in
  check Alcotest.string "fig1 byte-identical jobs 1 vs 4" seq par;
  (* the pooled run recorded the engine spans... *)
  let find_stage name = List.filter (fun s -> s.Core.Trace.stage = name) spans in
  let map =
    match find_stage "map" with
    | [ m ] -> m
    | ms -> Alcotest.failf "%d pool map spans" (List.length ms)
  in
  check int "map span counts the items" 6
    (List.assoc "items" map.Core.Trace.counters);
  let workers = find_stage "worker" in
  check (Alcotest.list Alcotest.string) "one worker span per domain"
    [ "pool/worker0"; "pool/worker1"; "pool/worker2"; "pool/worker3" ]
    (List.sort compare (List.map (fun w -> w.Core.Trace.design) workers));
  let claimed w = List.assoc "claimed" w.Core.Trace.counters in
  check int "workers claimed every item" 6
    (List.fold_left (fun acc w -> acc + claimed w) 0 workers);
  (* Worker 0 is the caller: its span is a child of the open map span,
     and the jobs it claimed are its children; every other job is a
     child of a spawned worker's span on that worker's own domain. *)
  let w0 = List.find (fun w -> w.Core.Trace.design = "pool/worker0") workers in
  check int "worker 0 under map" map.Core.Trace.id w0.Core.Trace.parent;
  let measures = find_stage "measure" in
  check int "worker 0's jobs under it" (claimed w0)
    (List.length
       (List.filter (fun s -> s.Core.Trace.parent = w0.Core.Trace.id) measures));
  List.iter
    (fun m ->
      if m.Core.Trace.parent <> w0.Core.Trace.id then
        check bool "other jobs under a spawned worker on their domain" true
          (List.exists
             (fun w ->
               w != w0
               && w.Core.Trace.id = m.Core.Trace.parent
               && w.Core.Trace.domain = m.Core.Trace.domain)
             workers))
    measures;
  (* Every parent link is truthful: the parent is on the child's domain
     and its interval contains the child's. *)
  let ends s = s.Core.Trace.start_s +. s.Core.Trace.dur_s in
  List.iter
    (fun s ->
      if s.Core.Trace.parent <> 0 then
        match
          List.find_opt (fun p -> p.Core.Trace.id = s.Core.Trace.parent) spans
        with
        | None -> Alcotest.failf "%s: parent not recorded" s.Core.Trace.stage
        | Some p ->
            check bool (s.Core.Trace.stage ^ ": parent contains it") true
              (p.Core.Trace.domain = s.Core.Trace.domain
              && p.Core.Trace.start_s <= s.Core.Trace.start_s
              && ends s <= ends p))
    spans;
  (* ...and still one complete pipeline per design, recorded across the
     domain boundary and through the JSON Lines round-trip. *)
  check int "simulate spans survive worker exit" 6
    (List.length (find_stage "simulate"));
  with_trace_file spans (fun file ->
      let back = Core.Trace.load_json file in
      let links l =
        List.map
          (fun s ->
            ( s.Core.Trace.id,
              s.Core.Trace.parent,
              s.Core.Trace.domain,
              s.Core.Trace.design,
              s.Core.Trace.stage ))
          l
      in
      check bool "ids, parents, domains and names survive" true
        (links spans = links back);
      let row =
        List.find
          (fun l -> String.starts_with ~prefix:"simulate " l)
          (String.split_on_char '\n' (Core.Trace.render_stats file))
      in
      check int "simulate spans survive the JSON round-trip" 6
        (Scanf.sscanf row "simulate %d" Fun.id))

let test_pool_trees_at_any_depth () =
  (* Worker 0 runs on the caller, so its span is a child of whichever
     map span opened it, at the top level or inside another span. *)
  let _, spans =
    traced (fun () ->
        ignore (Core.Parallel.map ~jobs:2 succ [ 1; 2 ]);
        Core.Trace.with_span ~design:"outer" ~stage:"outer" (fun () ->
            ignore (Core.Parallel.map ~jobs:2 succ [ 1; 2 ])))
  in
  with_trace_file spans (fun file ->
      let back = Core.Trace.load_json file in
      let named stage =
        List.filter (fun s -> s.Core.Trace.stage = stage) back
      in
      let ids l = List.map (fun s -> s.Core.Trace.id) l in
      let maps = named "map" in
      let worker0s =
        List.filter (fun s -> s.Core.Trace.design = "pool/worker0") back
      in
      check (Alcotest.list int) "each worker 0 under its map" (ids maps)
        (List.map (fun s -> s.Core.Trace.parent) worker0s);
      check (Alcotest.list int) "the second map under outer"
        [ 0; List.hd (ids (named "outer")) ]
        (List.map (fun s -> s.Core.Trace.parent) maps))

let test_spans_nest () =
  cold ();
  let _, spans =
    traced (fun () ->
        ignore
          (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2
             (Core.Kernel.initial idct Core.Design.Verilog)))
  in
  let ends s = s.Core.Trace.start_s +. s.Core.Trace.dur_s in
  let by_design = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let key = s.Core.Trace.design in
      Hashtbl.replace by_design key (s :: (Option.value ~default:[] (Hashtbl.find_opt by_design key))))
    spans;
  Hashtbl.iter
    (fun design ss ->
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then
                let disjoint = ends a <= b.Core.Trace.start_s || ends b <= a.Core.Trace.start_s in
                let a_in_b = b.Core.Trace.start_s <= a.Core.Trace.start_s && ends a <= ends b in
                let b_in_a = a.Core.Trace.start_s <= b.Core.Trace.start_s && ends b <= ends a in
                check bool
                  (Printf.sprintf "%s: %s/%s nest or are disjoint" design
                     a.Core.Trace.stage b.Core.Trace.stage)
                  true
                  (disjoint || a_in_b || b_in_a))
            ss)
        ss)
    by_design;
  (* every stage span reaches the design's measure span by its parents *)
  let root =
    List.find (fun s -> s.Core.Trace.stage = "measure") spans
  in
  let rec reaches_root s =
    s.Core.Trace.id = root.Core.Trace.id
    || List.exists
         (fun p -> p.Core.Trace.id = s.Core.Trace.parent && reaches_root p)
         spans
  in
  List.iter
    (fun s ->
      if s.Core.Trace.design = root.Core.Trace.design then
        check bool (s.Core.Trace.stage ^ " under measure") true
          (reaches_root s))
    spans

let test_cache_counters () =
  cold ();
  let d = Core.Kernel.initial idct Core.Design.Verilog in
  let counter name spans =
    List.fold_left
      (fun acc s ->
        if s.Core.Trace.stage = "measure" then
          acc + Option.value ~default:0 (List.assoc_opt name s.Core.Trace.counters)
        else acc)
      0 spans
  in
  let _, cold_spans = traced (fun () -> Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 d) in
  check int "cold run misses" 1 (counter "cache_miss" cold_spans);
  check int "cold run has no hit" 0 (counter "cache_hit" cold_spans);
  let _, warm_spans = traced (fun () -> Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 d) in
  check int "warm run hits" 1 (counter "cache_hit" warm_spans);
  check int "warm run has no miss" 0 (counter "cache_miss" warm_spans)

let test_table2_measures_once () =
  cold ();
  let _, spans = traced (fun () -> Core.Table2.compute ~jobs:2 ()) in
  let measures =
    List.filter (fun s -> s.Core.Trace.stage = "measure") spans
  in
  let counter name =
    List.fold_left
      (fun acc s ->
        acc
        + Option.value ~default:0 (List.assoc_opt name s.Core.Trace.counters))
      0 measures
  in
  (* 7 tools x (initial, optimized): the rows are built from the measured
     list itself, so no design is measured (or memo-read) twice. *)
  check int "one measure span per design" 14 (List.length measures);
  check int "every one a cold miss" 14 (counter "cache_miss");
  check int "no memo re-read" 0 (counter "cache_hit")

let test_json_roundtrip_and_stats () =
  cold ();
  let _, spans =
    traced (fun () ->
        ignore
          (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2
             (Core.Kernel.initial idct Core.Design.Chisel));
        (* A stage name longer than any flow stage, like transfo's. *)
        Core.Trace.with_span ~design:"transfo/t" ~stage:"transfo:fold_rows"
          ignore)
  in
  with_trace_file spans (fun file ->
      let back = Core.Trace.load_json file in
      check int "span count survives the round-trip" (List.length spans)
        (List.length back);
      let stages l =
        List.sort_uniq compare (List.map (fun s -> s.Core.Trace.stage) l)
      in
      check (Alcotest.list Alcotest.string) "stages survive" (stages spans)
        (stages back);
      let report = Core.Trace.render_stats file in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun name ->
          check bool ("stats names " ^ name) true (contains report name))
        Core.Flow.stage_names;
      (* The stage table: header and rows the same width, the count
         column right-aligned in one place, and no share of the traced
         wall above 100% for a trace taken on one domain. *)
      let lines = String.split_on_char '\n' report in
      let rec table = function
        | l :: rest when String.starts_with ~prefix:"stage " l ->
            l :: List.filter (fun l -> String.ends_with ~suffix:"%" l) rest
        | _ :: rest -> table rest
        | [] -> []
      in
      let header = List.hd (table lines) and rows = List.tl (table lines) in
      check int "a row per stage" 8 (List.length rows);
      let rec find_count i =
        if String.sub header i 5 = "count" then i + 5 else find_count (i + 1)
      in
      let count_end = find_count 0 in
      List.iter
        (fun row ->
          check int ("row width: " ^ row) (String.length header)
            (String.length row);
          check bool ("count column: " ^ row) true
            (row.[count_end - 1] <> ' ' && row.[count_end] = ' ');
          let share =
            Scanf.sscanf
              (String.sub row (String.length row - 7) 7)
              " %f%%" Fun.id
          in
          check bool ("share at most 100%: " ^ row) true (share <= 100.0))
        rows);
  (* Names with quotes, backslashes, control bytes and UTF-8 come back
     byte for byte, with their ids, parents, domains and counters. *)
  let odd = "q\"b\\s\tt\nn\001c\x1fu\xc3\xa9\xe2\x82\xac" in
  let _, spans =
    traced (fun () ->
        Core.Trace.with_span ~design:("k:" ^ odd) ~stage:("s" ^ odd)
          (fun () ->
            Core.Trace.add_counter ("c" ^ odd) 7;
            Core.Trace.with_span ~design:odd ~stage:odd (fun () ->
                Core.Trace.add_counter "neg" (-3);
                Core.Trace.add_counter odd 1)))
  in
  with_trace_file spans (fun file ->
      check int "one line per span" (List.length spans)
        (List.length
           (String.split_on_char '\n'
              (String.trim (In_channel.with_open_bin file In_channel.input_all))));
      let fields l =
        List.map
          (fun s ->
            ( (s.Core.Trace.id, s.Core.Trace.parent, s.Core.Trace.domain),
              (s.Core.Trace.design, s.Core.Trace.stage, s.Core.Trace.counters) ))
          l
      in
      check bool "odd names and counters survive" true
        (fields spans = fields (Core.Trace.load_json file)))

(* A span's self time is its duration minus its children's, so on one
   domain the self times add up to the roots' durations. *)
let test_self_times () =
  cold ();
  let _, spans = traced (render ~jobs:1) in
  let selfs = Core.Trace.self_times spans in
  let sum l = List.fold_left ( +. ) 0.0 l in
  let roots =
    sum
      (List.filter_map
         (fun s ->
           if s.Core.Trace.parent = 0 then Some s.Core.Trace.dur_s else None)
         spans)
  in
  check bool "self times sum to the root durations" true
    (Float.abs (sum (List.map snd selfs) -. roots)
    <= 1e-6 *. float_of_int (List.length spans));
  List.iter
    (fun (s, self) ->
      check bool (s.Core.Trace.stage ^ ": self time not negative") true
        (self >= -1e-6))
    selfs

(* The stats header counts the kernel-qualified design points of the
   full idct Fig. 1, with the pool and transfo spans listed apart. *)
let test_stats_counts_design_points () =
  let _, spans = traced (fun () -> Core.Fig1.compute ~jobs:2 ()) in
  with_trace_file spans (fun file ->
      let lines =
        String.split_on_char '\n' (Core.Trace.render_stats file)
      in
      check int "100 design points" 100
        (Scanf.sscanf (List.hd lines) "trace %s@: %d spans over %d design points"
           (fun _ _ n -> n));
      check bool "engine groups listed apart" true
        (List.exists
           (String.starts_with ~prefix:"engine groups: pool")
           lines);
      check bool "a busy time per domain" true
        (List.exists
           (fun l ->
             String.starts_with ~prefix:"domains: " l
             && List.length (String.split_on_char ',' l) = 2)
           lines))

let test_compliance_dispatch () =
  (* A PCIe design whose own simulator is wrong must fail compliance:
     the check exercises the design under test, not a fixed kernel. *)
  let broken =
    let good = Core.Kernel.initial idct Core.Design.Maxj in
    match good.Core.Design.impl with
    | Core.Design.Stream _ -> assert false
    | Core.Design.Pcie p ->
        {
          good with
          Core.Design.impl =
            Core.Design.Pcie { p with Core.Design.simulate = (fun mats -> mats) };
        }
  in
  check bool "broken PCIe simulator fails compliance" false
    (Core.Evaluate.check_compliance ~spec:Core.Flow.idct_spec ~blocks:4 broken);
  check bool "initial MaxJ kernel passes" true
    (Core.Evaluate.check_compliance ~spec:Core.Flow.idct_spec ~blocks:16
       (Core.Kernel.initial idct Core.Design.Maxj));
  check bool "optimized MaxJ kernel passes" true
    (Core.Evaluate.check_compliance ~spec:Core.Flow.idct_spec ~blocks:16
       (Core.Kernel.optimized idct Core.Design.Maxj))

let test_disabled_is_silent () =
  cold ();
  ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 (Core.Kernel.initial idct Core.Design.Verilog));
  Core.Trace.add_counter "orphan" 1;
  check int "nothing recorded with tracing off" 0
    (List.length (Core.Trace.drain ()))

let test_second_kernel_through_flow () =
  (* The FIR registers through the same door: same pipeline, its own
     spec.  Check one design end to end (bit-true or measure raises). *)
  let fir = Option.get (Core.Kernel.find "fir8") in
  let d = List.hd (Core.Kernel.all_designs fir) in
  check Alcotest.string "first FIR design" "Chisel"
    (Core.Design.tool_name d.Core.Design.tool);
  let m = Core.Evaluate.measure ~matrices:2 ~spec:(Core.Kernel.spec fir) d in
  check bool "FIR measurement is sane" true
    (m.Core.Metrics.area > 0 && m.Core.Metrics.fmax_mhz > 0.)

let test_slow_designs_do_not_time_out () =
  (* Vivado HLS-initial (periodicity 640) and Bambu-initial (400) are
     slow but correct: the default budget must only fire on a stream
     that stops making progress, never on a long one. *)
  let ok ~matrices tool =
    match
      Core.Evaluate.measure_all_result ~matrices ~spec:Core.Flow.idct_spec
        [ Core.Kernel.initial idct tool ]
    with
    | [ Ok _ ] -> ()
    | [ Error e ] ->
        Alcotest.failf "%s initial, %d matrices: %s"
          (Core.Design.tool_name tool) matrices (Core.Flow.error_to_string e)
    | _ -> assert false
  in
  ok ~matrices:8 Core.Design.Vivado_hls;
  ok ~matrices:12 Core.Design.Bambu

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "artifacts identical when traced" `Quick
            test_artifacts_identical_traced;
          Alcotest.test_case "artifacts identical across job counts" `Quick
            test_artifacts_identical_across_jobs;
          Alcotest.test_case "pool trees at any caller depth" `Quick
            test_pool_trees_at_any_depth;
          Alcotest.test_case "spans nest without overlap" `Quick
            test_spans_nest;
          Alcotest.test_case "cache hit/miss counters" `Quick
            test_cache_counters;
          Alcotest.test_case "table2 measures each design once" `Quick
            test_table2_measures_once;
          Alcotest.test_case "json round-trip and stats" `Quick
            test_json_roundtrip_and_stats;
          Alcotest.test_case "self times sum to the roots" `Quick
            test_self_times;
          Alcotest.test_case "stats counts design points" `Quick
            test_stats_counts_design_points;
          Alcotest.test_case "compliance dispatches on the design" `Quick
            test_compliance_dispatch;
          Alcotest.test_case "disabled tracing records nothing" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "second kernel through the pipeline" `Quick
            test_second_kernel_through_flow;
          Alcotest.test_case "slow designs do not time out" `Quick
            test_slow_designs_do_not_time_out;
        ] );
    ]
